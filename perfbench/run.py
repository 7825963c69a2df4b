"""End-to-end benchmark of the repro stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--trace 0|1]      # all four, tiny sizes
    python3 perfbench/run.py --workload all --seed N    # all four, full sizes
    python3 perfbench/run.py --update-goldens           # re-record paper-cli digests

Run from the root of a checkout.  Workloads (``README.md`` has the why,
load shapes and op mixes): ``paper-cli``, ``serve-mix``,
``engine-batch``, ``shard-fleet``; ``BENCHMARK.json`` names the last
two.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics: the workload runs with bench-side spans on alternate rounds
(its own layers, the self-time split and the tracing overhead), and a
tiny traced run of each other workload measures the remaining layers.
Spans are written to ``.bench_out/``.

stdout: a ``# host`` fingerprint line, one ``# <workload> <metric>``
line per metric, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (with
``--trace 0``, only the ``END_TO_END`` metrics the bounds gate).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from statistics import median

from benchlib import (
    host_fingerprint,
    layer_shares,
    quiet_op_seconds,
    tail_percentile,
    write_jsonl,
)
from workloads import ROOT, SRC, WORKLOADS, Ctx, update_goldens

#: End-to-end metrics (tracing off), reported on every workload; the
#: bounds in BENCHMARK.json gate these.
END_TO_END = {
    "setup_s": "s",
    "quiet_op_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Printed beside them on every workload, but not gated: between runs
#: of the same code they follow a shared host's slow phases, on
#: ``engine-batch`` and ``serve-mix`` two to four times more than
#: ``quiet_op_ms`` does (README.md has the figures).
REPORTED = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "ops/s",
}

#: Layers of the self-time split (``bench`` is the op root's own time).
LAYERS = ("bench", "cli", "api", "store", "serve", "exp", "sim", "workload", "dist")

#: Per-layer metrics (tracing on), reported on every workload.
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_thirdparty_ms": "ms",
    "cli.main_ms": "ms",
    "cli.via_hit_ms": "ms",
    "api.parse_us": "us",
    "api.digest_us": "us",
    "api.result_decode_us": "us",
    "store.get_hit_us": "us",
    "store.get_miss_us": "us",
    "store.contains_us": "us",
    "store.put_us": "us",
    "store.hit_ratio": "ratio",
    "store.entries_end": "count",
    "store.object_bytes_mean": "B",
    "serve.roundtrip_hit_ms": "ms",
    "serve.roundtrip_miss_ms": "ms",
    "serve.overhead_hit_ms": "ms",
    "serve.encode_us": "us",
    "serve.decode_us": "us",
    "serve.batch_groups": "count",
    "serve.coalesced": "count",
    "serve.rejected_busy": "count",
    "serve.deadline_exceeded": "count",
    "client.retries": "count",
    "exp.evaluate_ms": "ms",
    "exp.points_per_s": "points/s",
    "exp.cache_hit_ratio": "ratio",
    "sim.margin_yield_ms": "ms",
    "sim.cave_yield_ms": "ms",
    "sim.margin_trials_per_s": "trials/s",
    "sim.cave_trials_per_s": "trials/s",
    "workload.prepare_ms": "ms",
    "workload.run_ms": "ms",
    "workload.run_elec_ms": "ms",
    "readout.bank_cache_hit_ratio": "ratio",
    "readout.bank_evictions": "count",
    "dist.plan_ms": "ms",
    "dist.launch_ms": "ms",
    "dist.merge_ms": "ms",
    "dist.shard_compute_ms": "ms",
    "dist.launch_overhead_ms": "ms",
    "dist.retries": "count",
    "dist.lease_expired": "count",
    **{f"self.{layer}_frac": "ratio" for layer in LAYERS},
    "trace.self_coverage": "ratio",
    "trace.overhead_pct": "%",
}


def end_to_end(outcome) -> tuple[dict, dict]:
    """The END_TO_END and REPORTED values of one untraced run, plus notes."""
    latencies = [op.seconds for op in outcome.ops]
    by_kind: dict[str, list[float]] = {}
    for op in outcome.ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    tail = tail_percentile(latencies)
    if tail is None:  # too few ops for the rule (smoke sizes): the maximum
        tail = (100.0, max(latencies), len(latencies))
    metrics = {
        "setup_s": median(outcome.setup_s),
        "quiet_op_ms": 1000.0 * quiet_op_seconds(by_kind),
        "peak_rss_mb": outcome.peak_rss_mb,
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_tail_ms": 1000.0 * tail[1],
        "throughput_ops_s": outcome.loops * median(outcome.round_rates),
    }
    notes = {
        "setup_s": f"median of {len(outcome.setup_s)} set-ups",
        "quiet_op_ms": f"{len(by_kind)} op kinds, n={len(latencies)}",
        "latency_p50_ms": f"n={len(latencies)}",
        "latency_tail_ms": f"p{tail[0]:.1f}, n={tail[2]}",
        "throughput_ops_s": (
            f"{outcome.loops} x median of {len(outcome.round_rates)} round rates"
        ),
    }
    return metrics, notes


def per_layer(runs) -> dict:
    """Per-layer metrics of a traced run: the workload's own layers, span
    split and tracing overhead (``runs[0]``), then the layers only the
    other workloads' tiny traced runs reach."""
    ctx, outcome = runs[0]
    metrics = dict(outcome.layers)
    traced = [op.seconds for op in outcome.ops if op.traced]
    shares = layer_shares(ctx.tracer.spans, wall=sum(traced))
    for layer in LAYERS:
        metrics[f"self.{layer}_frac"] = shares.get(layer, 0.0)
    metrics["trace.self_coverage"] = sum(shares.values())
    untraced = [op.seconds for op in outcome.ops if not op.traced]
    metrics["trace.overhead_pct"] = 100.0 * (median(traced) / median(untraced) - 1.0)
    for _, other in runs[1:]:
        for key, value in other.layers.items():
            metrics.setdefault(key, value)
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return {key: metrics[key] for key in PER_LAYER}


def run_workload(name: str, args, work: Path, host: dict) -> dict:
    """Run one workload; print its metric lines; return its result object."""
    def run(workload: str, traced: bool):
        ctx = Ctx(
            workload=workload,
            seed=args.seed,
            seconds=args.seconds,
            smoke=args.smoke or workload != name,
            traced=traced,
            work=work / workload,
        )
        ctx.work.mkdir(parents=True)
        return ctx, WORKLOADS[workload](ctx)

    runs = [run(name, bool(args.trace))]
    outcome = runs[0][1]
    if args.trace:
        runs += [run(other, True) for other in WORKLOADS if other != name]
        metrics, units, notes = per_layer(runs), PER_LAYER, {}
        path = write_jsonl(
            ROOT / ".bench_out" / f"spans-{name}-seed{args.seed}.jsonl",
            {"workload": name, "seed": args.seed, "host": host},
            (
                {"workload": ctx.workload, **span}
                for ctx, _ in runs
                for span in sorted(ctx.tracer.spans, key=lambda s: s["id"])
            ),
        )
        print(f"spans: {path}", file=sys.stderr)
    else:
        (metrics, notes), units = end_to_end(outcome), {**END_TO_END, **REPORTED}
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"# {name} {key} = {value:.6g} {units[key]}{note}")
    if not args.trace:
        metrics = {key: metrics[key] for key in END_TO_END}
        print(
            f"# {name} fail_frac = {outcome.failed / outcome.attempted:.6g} ratio"
            f"  ({outcome.failed}/{outcome.attempted})"
        )
        for key, (value, unit) in outcome.extra.items():
            print(f"# {name} {key} = {value:.6g} {unit}")
    failed = sum(o.failed for _, o in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(o.attempted for _, o in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=(*WORKLOADS, "all"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, one round per workload"
    )
    parser.add_argument("--update-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.update_goldens:
        print(json.dumps(update_goldens(), indent=1))
        return 0
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required (or --smoke for all four)")
        args.workload = "all"

    host = host_fingerprint()
    print("# host " + json.dumps(host, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".bench_work" / f"run{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        results = {name: run_workload(name, args, work / name, host) for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
