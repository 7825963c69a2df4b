"""Shard runner: execute one :class:`~repro.dist.spec.ShardSpec`.

The runner is the only part of the distributed layer that computes.  It
rebuilds the shard's :mod:`repro.api` request with
:func:`repro.api.parse_request`, runs exactly the slice of work the
shard owns, and writes one content-keyed JSON result file:

* **sweep** shards evaluate their design-point rows through
  :func:`repro.api.evaluate_records` — the same facade entry point the
  CLI and the ``repro serve`` daemon use, which itself funnels into
  the single-host worker pool — and store the row records verbatim.
* **MC** shards feed their stream-block range to the request's
  :func:`repro.api.mc_kernel` — the kernel :func:`repro.api.simulate`
  runs — through :func:`repro.sim.engine.run_block_moments`, and store
  the per-block ``(count, mean, M2)`` moment states, the unit the
  merger re-folds in global block order to replay the single-host
  accumulation byte for byte.

Result files are committed with :func:`repro.durable.atomic_write`
before the checkpoint manifest records completion, so a killed run
never leaves a manifest entry pointing at a partial file.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro import api, faults, obs
from repro.durable import atomic_write
from repro.exp.cache import cache_stats
from repro.obs import JsonlSink
from repro.sim.engine import run_block_moments

from repro.dist.spec import ShardSpec


def telemetry_name(shard: ShardSpec) -> str:
    """File name of a shard's telemetry stream (next to its result)."""
    stem = shard.file_name
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    return stem + ".telemetry.jsonl"


def run_shard(shard: ShardSpec, *, telemetry_path: str | Path | None = None) -> dict:
    """Execute one shard in-process and return its result document.

    Every shard collects telemetry into its own scoped registry — the
    per-process cost is one span plus the instrumented layers' enabled
    paths, negligible against a shard's compute — and ships the
    snapshot home in the result's ``telemetry`` key, which
    :func:`repro.dist.merge.job_telemetry` folds into a job-level
    profile.  With ``telemetry_path`` the span/metric event stream is
    also written as JSONL next to the result file (the multi-host
    progress signal ``repro shard status`` sizes up).  If the caller's
    process already has telemetry enabled, the shard snapshot is folded
    into the live registry too, so in-process ``shard run`` keeps one
    coherent tree.  The ``cache`` key counts this shard's own pipeline
    cache hits and misses, not the process's running totals, so a
    worker that runs many shards reports each one alone.
    """
    started = time.perf_counter()
    caches = cache_stats()
    sinks = []
    if telemetry_path is not None:
        sinks.append(
            JsonlSink(
                telemetry_path,
                meta={
                    "kind": shard.kind,
                    "job_key": shard.job_key,
                    "shard_key": shard.key,
                    "index": shard.index,
                },
            )
        )
    with obs.scoped(sinks=sinks) as reg:
        with obs.span(
            "dist.run_shard", kind=shard.kind, index=shard.index, units=shard.units
        ):
            request = api.parse_request(shard.request)
            if isinstance(request, api.SweepRequest):
                rows = dataclasses.replace(
                    request, points=request.points[shard.start : shard.stop]
                )
                data = {"records": api.evaluate_records(rows)}
            else:
                kernel = api.mc_kernel(request)
                blocks = run_block_moments(
                    kernel,
                    request.samples,
                    request.seed,
                    block_start=shard.start,
                    block_stop=shard.stop,
                    stream_block=request.stream_block,
                )
                data = {
                    "metrics": {
                        name: [list(states[name]) for states in blocks]
                        for name in kernel.metrics
                    },
                }
        snapshot = reg.snapshot()
    obs.absorb(snapshot)
    return {
        "kind": shard.kind,
        "job_key": shard.job_key,
        "shard_key": shard.key,
        "index": shard.index,
        "count": shard.count,
        "units": shard.units,
        "elapsed_s": time.perf_counter() - started,
        "cache": cache_stats(since=caches),
        "telemetry": snapshot,
        "data": data,
    }


def write_result(result: dict, path: str | Path) -> Path:
    """Atomically write a result document."""
    return atomic_write(path, json.dumps(result, indent=1) + "\n")


def run_shard_file(
    spec_path: str | Path,
    results_dir: str | Path | None = None,
    *,
    record: bool = True,
    lease_ttl_s: float | None = None,
) -> dict:
    """Execute the shard described by a spec file from a job directory.

    Runs the shard, writes ``results/<index>-<key>.json`` atomically
    and — with ``record=True`` — appends the completion line to the
    job's checkpoint manifest.  The rename-then-record order is the
    commit protocol: a manifest line implies a fully-written result.

    While the shard computes, a heartbeat-renewed lease file (see
    :mod:`repro.dist.lease`) under ``<job_dir>/leases/`` signals
    liveness to any supervisor watching the job directory; a crashed or
    frozen worker stops renewing and is reaped.  ``lease_ttl_s``
    overrides the default TTL (the supervisor passes its own so both
    sides judge staleness by the same clock).

    The :mod:`repro.faults` chaos sites live here, in commit-protocol
    order: stall during compute, crash before the result write, crash
    after the write but before the manifest line, corrupt the written
    result just before recording completion.
    """
    from repro.dist.lease import DEFAULT_LEASE_TTL_S, Lease, lease_path_for
    from repro.dist.manifest import record_completion, results_dir_for

    spec_path = Path(spec_path)
    shard = ShardSpec.from_dict(json.loads(spec_path.read_text()))
    job_dir = spec_path.parent.parent
    out_dir = Path(results_dir) if results_dir else results_dir_for(job_dir)
    ttl = lease_ttl_s if lease_ttl_s is not None else DEFAULT_LEASE_TTL_S
    with Lease(lease_path_for(job_dir, shard), ttl_s=ttl):
        faults.stall_point("dist.stall")
        result = run_shard(shard, telemetry_path=out_dir / telemetry_name(shard))
        faults.crash_point("dist.crash_before_result")
        out_path = write_result(result, out_dir / shard.file_name)
        faults.crash_point("dist.crash_after_result")
        faults.corrupt_file("dist.corrupt_result", out_path)
        if record:
            record_completion(job_dir, shard, result)
    return result
