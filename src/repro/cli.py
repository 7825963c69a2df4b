"""Command-line interface: regenerate any paper artefact from a shell.

Examples
--------
::

    python -m repro info
    python -m repro fig7
    python -m repro fig8 --csv fig8.csv
    python -m repro evaluate BGC -M 10
    python -m repro optimize --objective bit_area
    python -m repro sweep --metric yield,area --jobs 4 --format csv
    python -m repro sweep --axis sigma_t=0.03,0.05,0.08 --metric yield
    python -m repro simulate BGC -M 10 --samples 500
    python -m repro memsim BGC -M 10 --trace zipfian --accesses 1000000
    python -m repro memsim BGC -M 10 --ecc --error-rate 0.001 --format json
    python -m repro readout --scheme all --sizes 4,8,16,32,64
    python -m repro sweep --metric readout --axis nanowires=10,20,40
    python -m repro shard plan sweep job/ --shards 4 --metric yield,area
    python -m repro shard launch job/ --workers 4
    python -m repro shard merge job/ --format csv
    python -m repro shard plan marginmc job/ BGC -M 8 --samples 1000000
    python -m repro serve --socket /tmp/repro.sock --store /var/repro-store
    python -m repro sweep --via /tmp/repro.sock --format csv
    python -m repro --store /var/repro-store simulate BGC -M 10
    python -m repro headline
    python -m repro theorems
    python -m repro baselines

Platform knobs (``--raw-kb``, ``--nanowires``, ``--sigma-t``,
``--window-margin``, ``--contact-gap``) apply to every subcommand, as
does ``--store`` (persistent result cache, default ``$REPRO_STORE``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import api, obs
from repro.analysis.export import series_to_csv, to_json
from repro.analysis.figures import (
    fig5_fabrication_complexity,
    fig6_variability_maps,
    fig7_crossbar_yield,
    fig8_bit_area,
)
from repro.analysis.report import paper_vs_measured, render_table
from repro.analysis.stats import headline_summary
from repro.analysis.sweeps import spec_with
from repro.core.design import DecoderDesign
from repro.core.optimizer import explore_designs
from repro.core.theorems import check_all
from repro.crossbar.spec import CrossbarSpec
from repro.decoder.stochastic import compare_with_deterministic


FAMILY_CHOICES = ["TC", "GC", "BGC", "HC", "AHC"]

# -- shared options layer ------------------------------------------------------
# Every subcommand that exposes one of these knobs adds it through the
# same helper, so names, defaults, choices and help text agree across
# the whole CLI (pinned by a golden test in tests/test_cli.py).

#: The one help string of every ``--seed`` option.
SEED_HELP = (
    "root seed; results are deterministic per seed and independent "
    "of --jobs and --chunk-size"
)

#: The one help string of every ``--chunk-size`` option.
CHUNK_HELP = (
    "max trials/accesses held in memory at once (default 65536; "
    "does not change results)"
)

#: The one help string of every ``--format`` option.
FORMAT_HELP = "output format (default table)"

#: The one help string of every ``--via`` option.
VIA_HELP = (
    "send the request to a running `repro serve` daemon at this "
    "unix socket instead of computing in-process (byte-identical "
    "results)"
)

FORMAT_CHOICES = ["table", "csv", "json"]


def _add_seed_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)


def _add_chunk_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chunk-size", type=int, default=65536, help=CHUNK_HELP)


def _add_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", default="table", choices=FORMAT_CHOICES, help=FORMAT_HELP
    )


def _add_via_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--via", metavar="SOCKET", default=None, help=VIA_HELP)


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """Design-grid arguments shared by ``sweep`` and ``shard plan sweep``."""
    p.add_argument(
        "--families",
        default=",".join(["TC", "GC", "BGC", "HC", "AHC"]),
        help="comma-separated code families (default: all five)",
    )
    p.add_argument(
        "--lengths",
        default="4,6,8,10",
        help="comma-separated total lengths M (default 4,6,8,10); "
        "inadmissible (family, M) pairs are skipped",
    )
    p.add_argument(
        "-n",
        "--valence",
        type=int,
        default=2,
        help="logic valence (default 2)",
    )
    p.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="spec-override axis, e.g. --axis sigma_t=0.04,0.05 "
        "(repeatable; crossed with the code grid)",
    )


def _add_metric_args(p: argparse.ArgumentParser) -> None:
    """Metric selection and evaluator tuning knobs of sweep-style commands."""
    p.add_argument(
        "--metric",
        default="yield",
        help="comma-separated metrics: yield,area,complexity,"
        "margins,marginmc,montecarlo,readout,workload "
        "(default yield)",
    )
    p.add_argument(
        "--mc-samples",
        type=int,
        default=256,
        help="trials per point for the montecarlo and "
        "marginmc metrics",
    )
    p.add_argument(
        "--k-sigma",
        type=float,
        default=3.0,
        help="criterion strictness k for the margins and "
        "marginmc metrics (default 3.0)",
    )
    _add_seed_arg(p)
    p.add_argument(
        "--mc-seed",
        type=int,
        default=None,
        help="override the montecarlo root seed (default: --seed)",
    )
    p.add_argument(
        "--wl-trace",
        default="zipfian",
        choices=["uniform", "sequential", "zipfian", "bursty"],
        help="trace kind for the workload metric (default zipfian)",
    )
    p.add_argument(
        "--wl-accesses",
        type=int,
        default=4096,
        help="trace length per point for the workload metric",
    )
    p.add_argument(
        "--wl-instances",
        type=int,
        default=4,
        help="sampled crossbar instances per point for the "
        "workload metric",
    )
    p.add_argument(
        "--wl-ecc",
        action="store_true",
        help="protect the workload metric's payloads with SECDED",
    )
    p.add_argument(
        "--wl-error-rate",
        type=float,
        default=0.0,
        help="per-stored-bit write-error probability for the "
        "workload metric (pairs with --wl-ecc to exercise "
        "corrected/uncorrectable counts)",
    )
    p.add_argument(
        "--wl-readout",
        default="off",
        choices=["off", "float", "ground", "half_v"],
        help="resolve the workload metric's reads electrically "
        "under this biasing scheme (default off: ideal lookups); "
        "reuses the --ro-r-on/--ro-r-off crosspoint technology",
    )
    p.add_argument(
        "--wl-resolution",
        type=float,
        default=0.0,
        help="sense-amplifier resolution for --wl-readout as a "
        "relative margin floor in [0, 1) (default 0)",
    )
    p.add_argument(
        "--ro-r-on",
        type=float,
        default=1.0e5,
        help="crosspoint ON resistance for the readout metric "
        "[ohm] (default 1e5)",
    )
    p.add_argument(
        "--ro-r-off",
        type=float,
        default=1.0e7,
        help="crosspoint OFF resistance for the readout metric "
        "[ohm] (default 1e7)",
    )
    p.add_argument(
        "--ro-min-margin",
        type=float,
        default=0.5,
        help="sense-margin floor for the readout metric's "
        "max-bank-size figure (default 0.5)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Decoding Nanowire Arrays Fabricated with "
            "the Multi-Spacer Patterning Technique' (DAC 2009)."
        ),
    )
    parser.add_argument(
        "--raw-kb",
        type=float,
        default=16.0,
        help="raw crossbar density in kB (default 16)",
    )
    parser.add_argument(
        "--nanowires",
        type=int,
        default=20,
        help="nanowires per half cave (default 20)",
    )
    parser.add_argument(
        "--sigma-t",
        type=float,
        default=0.05,
        help="per-dose VT std deviation in V (default 0.05)",
    )
    parser.add_argument(
        "--window-margin",
        type=float,
        default=1.0,
        help="addressability window margin (default 1.0)",
    )
    parser.add_argument(
        "--contact-gap",
        type=float,
        default=1.0,
        help="contact dead gap in litho pitches (default 1.0)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="after the command, print the telemetry span tree and top "
        "counters to stderr (stdout is unchanged)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help="stream telemetry events to this JSONL file (one line per "
        "closed span plus a final metric snapshot; stable schema, see "
        "README 'Observability')",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="content-addressed result store directory (default: "
        "$REPRO_STORE if set); sweep/simulate/memsim/margins results "
        "are served from and committed to it",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="deterministic fault-injection plan for chaos testing, "
        'e.g. "seed=7,dist.crash_after_result=@1,serve.drop=0.25"; '
        "exported as $REPRO_FAULTS so worker processes inherit it "
        "(see README 'Fault tolerance & chaos testing')",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show the platform specification")

    for fig in ("fig5", "fig6", "fig7", "fig8"):
        p = sub.add_parser(fig, help=f"regenerate paper {fig.capitalize()}")
        p.add_argument("--csv", help="also write the series to this CSV file")
        p.add_argument("--json", help="also write the data to this JSON file")

    p = sub.add_parser("evaluate", help="evaluate one decoder design")
    p.add_argument("family", choices=FAMILY_CHOICES)
    p.add_argument(
        "-M",
        "--length",
        type=int,
        required=True,
        help="total code length (doping regions)",
    )
    p.add_argument(
        "-n",
        "--valence",
        type=int,
        default=2,
        help="logic valence (default 2)",
    )

    p = sub.add_parser("optimize", help="explore the design space")
    p.add_argument(
        "--objective",
        default="bit_area",
        choices=["complexity", "variability", "yield", "bit_area"],
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the exploration (0 = auto)",
    )

    p = sub.add_parser(
        "sweep",
        help="design-space sweep on the evaluation pipeline",
        description=(
            "Evaluate a full-factorial grid of design points "
            "(families x lengths x spec axes) through the parallel, "
            "cached exp pipeline and print a columnar result."
        ),
    )
    _add_grid_args(p)
    _add_metric_args(p)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial, 0 = auto); results "
        "are identical for any value. With --via the daemon's own "
        "--jobs applies",
    )
    _add_format_arg(p)
    _add_via_arg(p)
    p.add_argument("--output", help="write the formatted result to this file")

    p = sub.add_parser("simulate", help="Monte-Carlo yield of one design")
    p.add_argument("family", choices=FAMILY_CHOICES)
    p.add_argument("-M", "--length", type=int, required=True)
    p.add_argument("-n", "--valence", type=int, default=2)
    p.add_argument(
        "--samples",
        type=int,
        default=300,
        help="Monte-Carlo trials (batched engine scales to "
        "millions; default 300)",
    )
    _add_seed_arg(p)
    _add_chunk_arg(p)
    _add_format_arg(p)
    _add_via_arg(p)

    p = sub.add_parser(
        "memsim",
        help="trace-driven memory workload over a fleet of instances",
        description=(
            "Sample a fleet of defective crossbar instances, replay a "
            "synthetic access trace on every instance through the "
            "vectorised workload engine, and report effective capacity, "
            "access-failure and ECC-repair statistics across the fleet."
        ),
    )
    p.add_argument("family", choices=FAMILY_CHOICES)
    p.add_argument(
        "-M",
        "--length",
        type=int,
        required=True,
        help="total code length (doping regions)",
    )
    p.add_argument(
        "-n",
        "--valence",
        type=int,
        default=2,
        help="logic valence (default 2)",
    )
    p.add_argument(
        "--trace",
        default="zipfian",
        choices=["uniform", "sequential", "zipfian", "bursty"],
        help="synthetic trace kind (default zipfian)",
    )
    p.add_argument(
        "--accesses",
        type=int,
        default=100_000,
        help="trace length in accesses (default 100000)",
    )
    p.add_argument(
        "--instances",
        type=int,
        default=16,
        help="sampled crossbar instances in the fleet (default 16)",
    )
    p.add_argument(
        "--write-fraction",
        type=float,
        default=0.5,
        help="fraction of write accesses (default 0.5)",
    )
    p.add_argument(
        "--address-space",
        type=int,
        default=0,
        help="logical address space; 0 (default) sizes it from "
        "the analytic effective-bits figure, so capacity "
        "shortfalls appear as access failures",
    )
    p.add_argument(
        "--ecc",
        action="store_true",
        help="protect payloads with SECDED; trace addresses "
        "become code-block addresses",
    )
    p.add_argument(
        "--parity-bits",
        type=int,
        default=6,
        help="SECDED parity bits r; block 2**r (default 6)",
    )
    p.add_argument(
        "--error-rate",
        type=float,
        default=0.0,
        help="per-stored-bit flip probability at write time",
    )
    _add_seed_arg(p)
    _add_chunk_arg(p)
    p.add_argument(
        "--readout",
        nargs="?",
        const="float",
        default=None,
        choices=["float", "ground", "half_v"],
        help="resolve reads electrically through the sneak-path "
        "solver under this biasing scheme (bare --readout means "
        "float); adds misread/margin/ECC-masking metrics and the "
        "bank-cache statistics",
    )
    p.add_argument(
        "--r-on",
        type=float,
        default=1.0e5,
        help="crosspoint ON resistance for --readout [ohm] "
        "(default 1e5)",
    )
    p.add_argument(
        "--r-off",
        type=float,
        default=1.0e7,
        help="crosspoint OFF resistance for --readout [ohm] "
        "(default 1e7)",
    )
    p.add_argument(
        "--v-read",
        type=float,
        default=0.5,
        help="read voltage for --readout [V] (default 0.5)",
    )
    p.add_argument(
        "--resolution",
        type=float,
        default=0.0,
        help="sense-amplifier resolution for --readout as a "
        "relative margin floor in [0, 1); stored bits whose "
        "margin falls below it misread (default 0, ideal)",
    )
    _add_format_arg(p)
    _add_via_arg(p)

    sub.add_parser("headline", help="paper-vs-measured headline claims")
    sub.add_parser("theorems", help="run the executable proposition checks")
    sub.add_parser("baselines", help="compare with stochastic decoders [6, 8]")

    p = sub.add_parser(
        "margins",
        help="k-sigma sense margins per code family",
        description=(
            "Evaluate the worst-case k-sigma sense margins and the "
            "analytic margin yield of each code family on the "
            "vectorized margin engine; with --samples, also run the "
            "batched margin-yield Monte-Carlo (realised VTs against "
            "the k-sigma sensing guard band)."
        ),
    )
    p.add_argument(
        "--family",
        "--families",
        dest="families",
        default="TC,GC,BGC",
        help="comma-separated code families (default TC,GC,BGC)",
    )
    p.add_argument(
        "-M",
        "--length",
        type=int,
        default=8,
        help="total code length (doping regions, default 8)",
    )
    p.add_argument(
        "-n",
        "--valence",
        type=int,
        default=2,
        help="logic valence (default 2)",
    )
    p.add_argument(
        "--k-sigma",
        type=float,
        default=3.0,
        help="margin criterion strictness k (default 3.0)",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=0,
        help="margin-yield Monte-Carlo trials per family "
        "(default 0 = analytic margins only)",
    )
    _add_seed_arg(p)
    _add_chunk_arg(p)
    _add_format_arg(p)
    _add_via_arg(p)

    p = sub.add_parser(
        "readout",
        help="sneak-path margins vs bank size",
        description=(
            "Worst-case sense margins of square banks on the batched "
            "readout engine; --scheme all shares each bank size's "
            "stamped Laplacians across all three biasing schemes."
        ),
    )
    p.add_argument(
        "--scheme",
        default="float",
        choices=["float", "ground", "half_v", "all"],
    )
    p.add_argument(
        "--sizes",
        default="4,8,16,20,32,64",
        help="comma-separated square bank sizes "
        "(default 4,8,16,20,32,64)",
    )
    p.add_argument(
        "--r-on",
        type=float,
        default=1.0e5,
        help="crosspoint ON resistance [ohm] (default 1e5)",
    )
    p.add_argument(
        "--r-off",
        type=float,
        default=1.0e7,
        help="crosspoint OFF resistance [ohm] (default 1e7)",
    )

    sub.add_parser("calibrate", help="score the calibration grid")

    p = sub.add_parser(
        "serve",
        help="long-lived result daemon on a unix socket",
        description=(
            "Serve canonical repro.api requests over newline-delimited "
            "JSON frames: store hits answer immediately and identical "
            "in-flight requests coalesce onto one computation. Point "
            "clients at it with --via."
        ),
    )
    p.add_argument(
        "--socket", required=True, metavar="PATH", help="unix socket path to bind"
    )
    # also accepted after the subcommand (SUPPRESS keeps a pre-subcommand
    # global --store from being clobbered by this default)
    p.add_argument(
        "--store",
        metavar="DIR",
        default=argparse.SUPPRESS,
        help="content-addressed result store directory the daemon "
        "serves hits from (default: $REPRO_STORE if set)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per sweep evaluation (1 = serial, "
        "0 = auto); results are identical for any value",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-request deadline; a request past it gets a "
        "'deadline' error frame instead of blocking its client "
        "(default 300, 0 disables)",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="bound on concurrently computing requests; past it new "
        "work is refused with a 'busy' error frame carrying "
        "retry_after (default 64)",
    )

    p = sub.add_parser(
        "store",
        help="maintain a content-addressed result store",
        description=(
            "Maintenance for a result store directory: compact the "
            "append-only manifest to live entries (gc) or digest-verify "
            "every object file (verify). The root comes from the "
            "positional argument, the global --store, or $REPRO_STORE."
        ),
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    sg = store_sub.add_parser(
        "gc", help="compact manifest.jsonl to live entries"
    )
    sg.add_argument(
        "root",
        nargs="?",
        default=None,
        help="store directory (default: global --store / $REPRO_STORE)",
    )
    sv = store_sub.add_parser(
        "verify", help="digest-verify every object in the store"
    )
    sv.add_argument(
        "root",
        nargs="?",
        default=None,
        help="store directory (default: global --store / $REPRO_STORE)",
    )
    sv.add_argument(
        "--quarantine",
        action="store_true",
        help="rename corrupt objects to .corrupt so the next request "
        "recommits them cleanly",
    )

    p = sub.add_parser(
        "shard",
        help="plan, run and merge distributed shard jobs",
        description=(
            "Split a sweep or Monte-Carlo job into deterministic, "
            "self-describing shards; run them here or on any host "
            "sharing the job directory; merge the results back "
            "byte-identically to the single-host run."
        ),
    )
    shard_sub = p.add_subparsers(dest="shard_command", required=True)

    plan = shard_sub.add_parser(
        "plan", help="write a job directory full of shard specs"
    )
    plan_sub = plan.add_subparsers(dest="plan_kind", required=True)

    ps = plan_sub.add_parser("sweep", help="shard a design-space sweep")
    ps.add_argument("job_dir", help="job directory to create")
    ps.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count (default 4; capped at the grid size)",
    )
    _add_grid_args(ps)
    _add_metric_args(ps)

    for kind, blurb in (
        ("marginmc", "shard a k-sigma margin-yield Monte-Carlo"),
        ("cavemc", "shard a cave-yield Monte-Carlo"),
    ):
        pm = plan_sub.add_parser(kind, help=blurb)
        pm.add_argument("job_dir", help="job directory to create")
        pm.add_argument("family", choices=FAMILY_CHOICES)
        pm.add_argument(
            "-M",
            "--length",
            type=int,
            required=True,
            help="total code length (doping regions)",
        )
        pm.add_argument(
            "-n", "--valence", type=int, default=2, help="logic valence (default 2)"
        )
        pm.add_argument(
            "--shards",
            type=int,
            default=4,
            help="shard count (default 4; capped at the stream-block count)",
        )
        pm.add_argument(
            "--samples",
            type=int,
            default=100_000,
            help="total Monte-Carlo trials across all shards "
            "(default 100000)",
        )
        pm.add_argument(
            "--seed",
            type=int,
            default=0,
            help="root seed; the merged result is bit-equal to a "
            "single-host run with this seed for any shard count",
        )
        pm.add_argument(
            "--stream-block",
            type=int,
            default=4096,
            help="trials per child random stream (default 4096; "
            "part of the reproducibility contract)",
        )
        if kind == "marginmc":
            pm.add_argument(
                "--k-sigma",
                type=float,
                default=3.0,
                help="margin criterion strictness k (default 3.0)",
            )

    pr = shard_sub.add_parser("run", help="execute one shard spec file")
    pr.add_argument("spec_file", help="a shards/NNNN-<key>.json spec")
    pr.add_argument(
        "--results-dir",
        default=None,
        help="write the result file here instead of the job's results/",
    )
    pr.add_argument(
        "--no-record",
        action="store_true",
        help="skip the checkpoint-manifest completion line",
    )

    pl = shard_sub.add_parser(
        "launch",
        help="run every pending shard in supervised local processes",
    )
    pl.add_argument("job_dir")
    pl.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = auto: min(pending, CPUs))",
    )
    pl.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per failed shard before it is "
        "quarantined (default 2)",
    )
    pl.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the exponential re-queue backoff (default 0.5)",
    )
    pl.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="worker lease time-to-live; a worker that stops renewing "
        "for this long is presumed hung and killed (default 15)",
    )

    pt = shard_sub.add_parser("status", help="job progress from the manifest")
    pt.add_argument("job_dir")
    pt.add_argument(
        "--watch",
        action="store_true",
        help="poll until every shard completes, printing one progress "
        "line (units/s, ETA, stragglers) to stderr per interval",
    )
    pt.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch polls (default 2)",
    )

    pg = shard_sub.add_parser(
        "merge", help="merge a completed job into the single-host result"
    )
    pg.add_argument("job_dir")
    pg.add_argument(
        "--format",
        default="table",
        choices=["table", "csv", "json"],
        help="output format (default table)",
    )
    pg.add_argument("--output", help="write the formatted result to this file")

    return parser


def _timing_payload() -> dict:
    """The uniform ``timing`` section of every ``--format json`` payload.

    Derived from the live telemetry registry at formatting time — the
    command's ``cli.<command>`` span is still open, so ``wall_s`` covers
    everything up to serialisation and ``spans`` holds the aggregated
    tree of the layers the command exercised.
    """
    snap = obs.snapshot() or {}
    return {
        "schema_version": obs.SCHEMA_VERSION,
        "wall_s": obs.current_elapsed(),
        "spans": snap.get("spans", {}),
    }


def _spec_from_args(args: argparse.Namespace) -> CrossbarSpec:
    base = CrossbarSpec(raw_kilobytes=args.raw_kb)
    return spec_with(
        base,
        window_margin=args.window_margin,
        sigma_t=args.sigma_t,
        nanowires=args.nanowires,
        contact_gap_factor=args.contact_gap,
    )


def _cmd_info(spec: CrossbarSpec) -> str:
    rows = [
        ["raw density", f"{spec.raw_bits / 8192:.0f} kB ({spec.raw_bits} bits)"],
        ["array side", f"{spec.side_nanowires} nanowires"],
        ["half caves / layer", spec.half_caves_per_layer],
        ["nanowires / half cave", spec.nanowires_per_half_cave],
        ["litho pitch P_L", f"{spec.rules.litho_pitch_nm:.0f} nm"],
        ["nanowire pitch P_N", f"{spec.rules.nanowire_pitch_nm:.0f} nm"],
        ["sigma_T", f"{1000 * spec.sigma_t:.0f} mV"],
        ["window margin", spec.window_margin],
        ["contact gap", f"{spec.rules.contact_gap_nm:.0f} nm"],
    ]
    return render_table(["parameter", "value"], rows)


def _cmd_fig5() -> tuple[str, dict]:
    data = fig5_fabrication_complexity()
    rows = [[logic, row["TC"], row["GC"]] for logic, row in data.items()]
    return render_table(["logic", "TC", "GC"], rows), data


def _cmd_fig6() -> tuple[str, dict]:
    data = fig6_variability_maps()
    rows = [
        [f"{fam} (L={length})", float(p.min()), float(p.mean()), float(p.max())]
        for (fam, length), p in sorted(data.items())
    ]
    table = render_table(["panel", "min", "mean", "max"], rows, 2)
    return table, {f"{fam}_L{length}": p for (fam, length), p in data.items()}


def _cmd_fig7(spec: CrossbarSpec) -> tuple[str, dict]:
    data = fig7_crossbar_yield(spec)
    rows = [
        [fam, length, f"{100 * y:.1f}%"]
        for fam, points in data.items()
        for length, y in points
    ]
    return render_table(["family", "M", "yield"], rows), data


def _cmd_fig8(spec: CrossbarSpec) -> tuple[str, dict]:
    data = fig8_bit_area(spec)
    rows = [
        [fam, length, f"{area:.0f}"]
        for fam, points in data.items()
        for length, area in points
    ]
    return render_table(["family", "M", "bit area nm^2"], rows), data


def _cmd_evaluate(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    design = DecoderDesign.build(args.family, args.length, n=args.valence, spec=spec)
    s = design.summary()
    rows = [[k, v] for k, v in s.items()]
    return render_table(["figure", "value"], rows, 4)


def _parse_axis_values(text: str) -> tuple[float, ...]:
    """Parse one ``--axis`` value list, keeping ints exact (nanowires)."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            out.append(int(chunk))
        except ValueError:
            out.append(float(chunk))
    return tuple(out)


def _grid_from_args(args: argparse.Namespace) -> list:
    """The design-point grid an ``_add_grid_args`` namespace describes."""
    from repro.exp.designpoint import design_grid

    axes = {}
    for item in args.axis:
        name, _, values = item.partition("=")
        if not values:
            raise SystemExit(f"--axis expects NAME=V1,V2,..., got {item!r}")
        try:
            axes[name.strip()] = _parse_axis_values(values)
        except ValueError:
            raise SystemExit(f"--axis has a malformed value list: {item!r}")
    try:
        points = design_grid(
            families=tuple(
                f.strip() for f in args.families.split(",") if f.strip()
            ),
            lengths=tuple(int(m) for m in args.lengths.split(",") if m.strip()),
            n=args.valence,
            axes=axes,
        )
    except ValueError as exc:  # e.g. an unknown --axis override name
        raise SystemExit(str(exc))
    if not points:
        raise SystemExit("the requested grid has no admissible design points")
    return points


def _params_from_args(args: argparse.Namespace):
    """The :class:`SweepParams` an ``_add_metric_args`` namespace describes."""
    from repro.exp.pipeline import SweepParams

    return SweepParams(
        mc_samples=args.mc_samples,
        mc_seed=args.seed if args.mc_seed is None else args.mc_seed,
        k_sigma=args.k_sigma,
        wl_trace=args.wl_trace,
        wl_accesses=args.wl_accesses,
        wl_instances=args.wl_instances,
        wl_ecc=args.wl_ecc,
        wl_error_rate=args.wl_error_rate,
        wl_readout=args.wl_readout,
        wl_resolution=args.wl_resolution,
        wl_seed=args.seed,
        ro_r_on=args.ro_r_on,
        ro_r_off=args.ro_r_off,
        ro_min_margin=args.ro_min_margin,
    )


def _metrics_from_args(args: argparse.Namespace) -> tuple[str, ...]:
    return tuple(m.strip() for m in args.metric.split(",") if m.strip())


def _format_sweep_result(result, fmt: str) -> str:
    """One SweepResult, formatted; shared by ``sweep`` and ``shard merge``.

    The csv/json forms are the byte-identity surface of the shard
    layer: ``shard merge --format csv`` must reproduce ``sweep
    --format csv`` exactly, so both funnel through here.
    """
    if fmt == "csv":
        return result.to_csv_string().rstrip("\n")
    if fmt == "json":
        return result.to_json_string().rstrip("\n")
    fields = list(result.fields)
    rows = [[rec[f] for f in fields] for rec in result.to_records()]
    return render_table(fields, rows, 4) + f"\n\n{len(result)} design points"


def _store_from_args(args: argparse.Namespace):
    """The result store the global ``--store``/``$REPRO_STORE`` names."""
    from repro.store import default_store

    return default_store(args.store)


def _run_request(args: argparse.Namespace, op: str, request, **knobs):
    """Route one api request directly or through a ``--via`` daemon.

    The single junction every adapted subcommand (sweep, simulate,
    memsim, margins) goes through: ``--via SOCKET`` swaps the
    in-process facade call for the daemon client, byte-identically.
    """
    via = getattr(args, "via", None)
    if via:
        from repro.serve import ServeClient

        knobs.pop("jobs", None)  # the daemon evaluates with its own --jobs
        with ServeClient(via) as client:
            return getattr(client, op)(request, **knobs)
    return getattr(api, op)(request, store=_store_from_args(args), **knobs)


def _cmd_sweep(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    import json as _json

    from repro.exp.cache import cache_stats
    from repro.exp.pipeline import default_jobs

    request = api.SweepRequest(
        points=tuple(_grid_from_args(args)),
        metrics=_metrics_from_args(args),
        spec=spec,
        params=_params_from_args(args),
    )
    result = _run_request(
        args,
        "evaluate",
        request,
        jobs=args.jobs if args.jobs >= 1 else default_jobs(),
    )
    if args.format == "json":
        payload = {
            "design_points": len(result),
            "cache": cache_stats(),
            "timing": _timing_payload(),
            "records": result.to_records(),
        }
        out = _json.dumps(payload, indent=2)
    else:
        out = _format_sweep_result(result, args.format)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(out + "\n")
        return f"wrote {args.output} ({len(result)} design points)"
    return out


def _cmd_shard(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    import dataclasses
    import json as _json

    from repro import dist
    from repro.exp.results import SweepResult

    if args.shard_command == "plan":
        if args.plan_kind == "sweep":
            plan = dist.plan_sweep_shards(
                _grid_from_args(args),
                metrics=_metrics_from_args(args),
                shards=args.shards,
                spec=spec,
                params=_params_from_args(args),
            )
        else:
            plan = dist.plan_mc_shards(
                args.plan_kind,
                args.family,
                args.length,
                shards=args.shards,
                samples=args.samples,
                n=args.valence,
                spec=spec,
                seed=args.seed,
                k_sigma=getattr(args, "k_sigma", 3.0),
                stream_block=args.stream_block,
            )
        dist.write_job(args.job_dir, plan)
        rows = [[s.index, s.key, s.units] for s in plan.shards]
        table = render_table(["shard", "key", "units"], rows)
        return (
            table
            + f"\n\nplanned {plan.kind} job {plan.key}: "
            f"{len(plan.shards)} shard spec(s) in {args.job_dir}"
        )
    if args.shard_command == "run":
        result = dist.run_shard_file(
            args.spec_file,
            results_dir=args.results_dir,
            record=not args.no_record,
        )
        return (
            f"shard {result['index'] + 1}/{result['count']} of job "
            f"{result['job_key']} done: {result['units']} unit(s) in "
            f"{result['elapsed_s']:.2f}s"
        )
    if args.shard_command == "launch":
        try:
            report = dist.launch(
                args.job_dir,
                workers=args.workers or None,
                retries=args.retries,
                backoff_s=args.backoff,
                lease_ttl_s=args.lease_ttl,
            )
        except dist.ShardJobError as exc:
            raise SystemExit(str(exc)) from exc
        out = (
            f"ran {len(report.ran)} shard(s) {list(report.ran)}, skipped "
            f"{len(report.skipped)} already complete {list(report.skipped)}"
        )
        if report.retried:
            retries = ", ".join(f"{i} x{n}" for i, n in report.retried)
            out += f"\nretried: {retries}"
        return out
    if args.shard_command == "status":
        if args.watch:
            import time as _time

            while True:
                st = dist.status(args.job_dir)
                rate = st["units_per_s"]
                eta = st["eta_s"]
                print(
                    f"{st['completed']}/{st['shards']} shards  "
                    f"{st['units_done']}/{st['units_total']} units  "
                    + (f"{rate:,.1f} units/s  " if rate else "")
                    + (f"eta {eta:,.0f}s  " if eta else "")
                    + (
                        f"stragglers {st['stragglers']}"
                        if st["stragglers"]
                        else ""
                    ),
                    file=sys.stderr,
                )
                if not st["pending"]:
                    break
                _time.sleep(args.interval)
        doc = dist.status(args.job_dir)
        doc["timing"] = _timing_payload()
        return _json.dumps(doc, indent=2)

    merged = dist.merge_results(args.job_dir)
    # fold shard telemetry into this process's registry so --profile
    # renders the whole job's span tree, not just the merge step
    obs.absorb(dist.job_telemetry(args.job_dir))
    if isinstance(merged, SweepResult):
        out = _format_sweep_result(merged, args.format)
    else:
        payload = dataclasses.asdict(merged)
        if args.format == "json":
            payload["timing"] = _timing_payload()
            out = _json.dumps(payload, indent=2)
        elif args.format == "csv":
            out = _scalar_csv(payload)
        else:
            rows = [[k, v] for k, v in payload.items()]
            out = render_table(["figure", "value"], rows, 6)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(out + "\n")
        return f"wrote {args.output}"
    return out


def _cmd_optimize(spec: CrossbarSpec, objective: str, jobs: int = 1) -> str:
    from repro.exp.pipeline import default_jobs

    result = explore_designs(
        objective, spec=spec, jobs=jobs if jobs >= 1 else default_jobs()
    )
    rows = [
        [
            p.label,
            p.cost,
            f"{100 * p.design.cave_yield:.1f}%",
            f"{p.design.bit_area_nm2:.0f}",
        ]
        for p in result.ranking()
    ]
    table = render_table(
        ["design", f"cost ({objective})", "yield", "bit area nm^2"], rows, 2
    )
    return table + f"\n\nbest: {result.best.label}"


def _scalar_csv(payload: dict) -> str:
    """One header + one data row; floats keep their shortest repr."""
    return (
        ",".join(payload)
        + "\n"
        + ",".join(
            repr(v) if isinstance(v, float) else str(v) for v in payload.values()
        )
    )


def _cmd_simulate(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    import json as _json

    request = api.McRequest(
        kind="cavemc",
        family=args.family,
        total_length=args.length,
        n=args.valence,
        samples=args.samples,
        seed=args.seed,
        spec=spec,
    )
    with obs.span("cli.simulate.run", samples=args.samples) as sp:
        mc = _run_request(
            args,
            "simulate",
            request,
            chunk_size=args.chunk_size,
        )
    elapsed = max(sp.wall_s, 1e-9)

    if args.format != "table":
        payload = {
            "family": args.family,
            "total_length": args.length,
            "samples": mc.samples,
            "mean_cave_yield": mc.mean_cave_yield,
            "std_cave_yield": mc.std_cave_yield,
            "stderr": mc.stderr,
            "mean_electrical_yield": mc.mean_electrical_yield,
            "mean_geometric_yield": mc.mean_geometric_yield,
        }
        if args.format == "csv":
            return _scalar_csv(payload)
        payload["timing"] = _timing_payload()
        return _json.dumps(payload, indent=2)

    rows = [
        ["samples", mc.samples],
        ["trials/s", f"{mc.samples / elapsed:,.0f}"],
        ["mean cave yield", f"{100 * mc.mean_cave_yield:.2f}%"],
        ["std error", f"{100 * mc.stderr:.2f}%"],
        ["electrical yield", f"{100 * mc.mean_electrical_yield:.2f}%"],
        ["geometric yield", f"{100 * mc.mean_geometric_yield:.2f}%"],
    ]
    return render_table(["figure", "value"], rows)


def _cmd_memsim(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    import json as _json

    request = api.WorkloadRequest(
        family=args.family,
        total_length=args.length,
        n=args.valence,
        trace=args.trace,
        accesses=args.accesses,
        instances=args.instances,
        write_fraction=args.write_fraction,
        seed=args.seed,
        parity_bits=args.parity_bits if args.ecc else 0,
        error_rate=args.error_rate,
        address_space=args.address_space,
        readout=args.readout if args.readout is not None else "off",
        r_on=args.r_on,
        r_off=args.r_off,
        v_read=args.v_read,
        resolution=args.resolution,
        spec=spec,
    )
    with obs.span("cli.memsim.run", accesses=args.accesses) as sp:
        result = _run_request(
            args,
            "memsim",
            request,
            chunk_size=args.chunk_size,
        )
    elapsed = max(sp.wall_s, 1e-9)
    metric_names = list(result.metrics)

    if args.format != "table":
        payload = {
            "trace": result.trace,
            "accesses": result.accesses,
            "reads": result.reads,
            "writes": result.writes,
            "instances": result.instances,
            "address_space": result.address_space,
            "ecc": result.ecc,
            "accesses_per_second": result.accesses * result.instances / elapsed,
            "metrics": result.metrics,
            "exhausted_fraction": result.exhausted_fraction,
        }
        if args.format == "csv":
            flat = {
                k: v for k, v in payload.items() if k != "metrics"
            }
            for name, stats in result.metrics.items():
                flat[f"{name}_mean"] = stats["mean"]
                flat[f"{name}_std"] = stats["std"]
            del flat["accesses_per_second"]
            return _scalar_csv(flat)
        payload["timing"] = _timing_payload()
        if result.electrical:
            payload["readout"] = result.readout
            payload["bank_cache"] = result.cache
        return _json.dumps(payload, indent=2)

    rows = [
        ["trace", f"{result.trace} ({result.reads} reads / {result.writes} writes)"],
        ["instances", result.instances],
        ["address space", result.address_space],
        ["ecc", f"SECDED r={result.parity_bits}" if result.ecc else "off"],
        ["fleet accesses/s", f"{result.accesses * result.instances / elapsed:,.0f}"],
    ]
    if result.electrical:
        rows.insert(
            4,
            [
                "readout",
                f"{result.readout['scheme']} "
                f"(resolution {result.readout['resolution']})",
            ],
        )
    for name in metric_names:
        s = result.metrics[name]
        rows.append([name, f"{s['mean']:,.4g} +- {s['std']:,.4g}"])
    rows.append(
        ["exhausted instances", f"{100 * result.exhausted_fraction:.0f}%"]
    )
    if result.electrical and result.cache is not None:
        rows.append(
            [
                "bank cache",
                f"{result.cache['hits']} hits / {result.cache['misses']} misses "
                f"({100 * result.cache['hit_rate']:.0f}%)",
            ]
        )
    return render_table(["figure", "value"], rows)


def _cmd_headline(spec: CrossbarSpec) -> str:
    claims = headline_summary(spec)
    return paper_vs_measured([(c.description, c.paper, c.measured) for c in claims])


def _cmd_theorems() -> str:
    results = check_all()
    rows = [[name, "PASS" if ok else "FAIL"] for name, ok in results.items()]
    return render_table(["proposition", "result"], rows)


def _cmd_baselines(spec: CrossbarSpec) -> str:
    rows = []
    group = spec.nanowires_per_half_cave
    for omega, mesowires in ((20, 6), (32, 10), (64, 12), (372, 18)):
        cmp = compare_with_deterministic(group, omega, mesowires)
        rows.append(
            [
                omega,
                mesowires,
                f"{100 * cmp.deterministic_fraction:.1f}%",
                f"{100 * cmp.random_code_fraction:.1f}%",
                f"{100 * cmp.random_contact_fraction:.1f}%",
            ]
        )
    return render_table(
        ["Omega", "mesowires", "MSPT (this paper)", "random codes [6]",
         "random contacts [8]"],
        rows,
    )


def _cmd_margins(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    import json as _json

    from repro.codes.registry import make_code
    from repro.decoder.margins import margin_report, margin_yield

    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise SystemExit("--family expects at least one family name")
    results = []
    for family in families:
        code = make_code(family, args.valence, args.length)
        report = margin_report(
            code,
            spec.nanowires_per_half_cave,
            sigma_t=spec.sigma_t,
            k_sigma=args.k_sigma,
        )
        entry = {
            "family": family,
            "select_margin_v": report.select_margin_v,
            "block_margin_v": report.block_margin_v,
            "worst_margin_v": report.worst_margin_v,
            "passes": report.passes,
            "margin_yield": margin_yield(
                code,
                spec.nanowires_per_half_cave,
                sigma_t=spec.sigma_t,
                k_sigma=args.k_sigma,
            ),
        }
        if args.samples > 0:
            # analytic figures above stay local; the sampled yield is a
            # canonical marginmc request, so --via and --store apply
            mc = _run_request(
                args,
                "simulate",
                api.McRequest(
                    kind="marginmc",
                    family=family,
                    total_length=args.length,
                    n=args.valence,
                    samples=args.samples,
                    seed=args.seed,
                    k_sigma=args.k_sigma,
                    spec=spec,
                ),
                chunk_size=args.chunk_size,
            )
            entry["mc_margin_yield"] = mc.mean_margin_yield
            entry["mc_stderr"] = mc.stderr
            entry["mc_select_margin_v"] = mc.mean_select_margin
            entry["mc_block_margin_v"] = mc.mean_block_margin
        results.append(entry)

    if args.format == "json":
        payload = {
            "length": args.length,
            "valence": args.valence,
            "k_sigma": args.k_sigma,
            "samples": args.samples,
            "seed": args.seed,
            "families": results,
            "timing": _timing_payload(),
        }
        return _json.dumps(payload, indent=2)

    if args.format == "csv":
        fields = list(results[0])
        lines = [",".join(fields)]
        for r in results:
            lines.append(
                ",".join(
                    repr(v) if isinstance(v, float) else str(v)
                    for v in (r[f] for f in fields)
                )
            )
        return "\n".join(lines)

    headers = ["family", "select", "block", "worst", "passes", "margin yield"]
    if args.samples > 0:
        headers += ["mc yield", "mc stderr"]
    rows = []
    for r in results:
        row = [
            r["family"],
            f"{1000 * r['select_margin_v']:.0f} mV",
            f"{1000 * r['block_margin_v']:.0f} mV",
            f"{1000 * r['worst_margin_v']:.0f} mV",
            "yes" if r["passes"] else "no",
            f"{100 * r['margin_yield']:.1f}%",
        ]
        if args.samples > 0:
            row += [
                f"{100 * r['mc_margin_yield']:.2f}%",
                f"{100 * r['mc_stderr']:.2f}%",
            ]
        rows.append(row)
    return render_table(headers, rows)


def _cmd_readout(args: argparse.Namespace) -> str:
    from repro.crossbar.readout import SCHEMES
    from repro.sim.readout import scheme_margin_sweep

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        raise SystemExit(f"--sizes has a malformed value list: {args.sizes!r}")
    if not sizes:
        raise SystemExit("--sizes expects at least one bank size")
    if min(sizes) < 1:
        raise SystemExit(f"--sizes expects positive bank sizes, got {args.sizes!r}")
    schemes = SCHEMES if args.scheme == "all" else (args.scheme,)
    # one engine sweep: each bank size's stamped Laplacians are shared
    # across every requested scheme
    sweep = scheme_margin_sweep(
        sizes, r_on=args.r_on, r_off=args.r_off, schemes=schemes
    )
    rows = [
        [size] + [f"{100 * sweep[s][k]:.1f}%" for s in schemes]
        for k, size in enumerate(sizes)
    ]
    header = list(schemes) if args.scheme == "all" else ["worst-case margin"]
    return render_table(["bank size", *header], rows)


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.serve import ReproServer

    store = _store_from_args(args)
    server = ReproServer(
        args.socket,
        store=store,
        jobs=args.jobs,
        deadline_s=args.deadline or None,
        max_pending=args.max_pending,
    )
    where = f"store {store.root}" if store is not None else "no store"
    print(f"repro serve: listening on {args.socket} ({where})", file=sys.stderr)
    server.serve_forever()
    return f"repro serve: {args.socket} shut down cleanly"


def _cmd_store(args: argparse.Namespace) -> str:
    import json as _json

    from repro.store import default_store

    store = default_store(args.root or args.store)
    if store is None:
        raise SystemExit(
            "repro store: no store directory given (pass one as an "
            "argument, via --store, or set $REPRO_STORE)"
        )
    if args.store_command == "gc":
        report = store.gc()
    else:
        report = store.verify(quarantine=args.quarantine)
    return _json.dumps({"root": str(store.root), **report}, indent=2)


def _cmd_calibrate() -> str:
    from repro.analysis.calibration import default_point, grid_search

    points = grid_search(
        margins=(0.9, 1.0), gaps=(0.75, 1.0, 1.25), tolerances=(5.0,)
    )
    rows = [
        [p.window_margin, p.contact_gap_factor, p.alignment_tolerance_nm,
         f"{p.error:.3f}"]
        for p in points[:6]
    ]
    table = render_table(["margin", "gap", "tol nm", "error"], rows, 2)
    return table + f"\n\nshipped defaults error: {default_point().error:.3f}"


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Every invocation collects telemetry (the enabled-path cost is
    negligible against any command's compute): spans/counters from the
    instrumented layers aggregate into one registry, ``--profile``
    renders the tree to stderr afterwards, and ``--telemetry-out``
    streams the events as JSONL.  stdout is never touched by telemetry.
    """
    args = build_parser().parse_args(argv)
    spec = _spec_from_args(args)

    if args.faults:
        from repro import faults as _faults

        try:
            _faults.FaultPlan.parse(args.faults)
        except ValueError as exc:
            raise SystemExit(f"repro --faults: {exc}") from exc
        # exported (not just activated) so forked shard workers and the
        # serve daemon's executor threads all see the same plan
        import os as _os

        _os.environ[_faults.ENV_VAR] = args.faults

    sinks = []
    if args.telemetry_out:
        sinks.append(
            obs.JsonlSink(args.telemetry_out, meta={"command": args.command})
        )
    obs.enable(sinks=sinks)
    try:
        with obs.span(f"cli.{args.command}"):
            return _dispatch(spec, args)
    finally:
        snap = obs.finish()
        if args.profile and snap is not None:
            print(obs.render_profile(snap), file=sys.stderr)


def _dispatch(spec: CrossbarSpec, args: argparse.Namespace) -> int:
    """Route to the subcommand handler and print its output."""
    data = None
    if args.command == "info":
        out = _cmd_info(spec)
    elif args.command == "fig5":
        out, data = _cmd_fig5()
    elif args.command == "fig6":
        out, data = _cmd_fig6()
    elif args.command == "fig7":
        out, data = _cmd_fig7(spec)
    elif args.command == "fig8":
        out, data = _cmd_fig8(spec)
    elif args.command == "evaluate":
        out = _cmd_evaluate(spec, args)
    elif args.command == "optimize":
        out = _cmd_optimize(spec, args.objective, args.jobs)
    elif args.command == "sweep":
        out = _cmd_sweep(spec, args)
    elif args.command == "simulate":
        out = _cmd_simulate(spec, args)
    elif args.command == "memsim":
        out = _cmd_memsim(spec, args)
    elif args.command == "headline":
        out = _cmd_headline(spec)
    elif args.command == "theorems":
        out = _cmd_theorems()
    elif args.command == "baselines":
        out = _cmd_baselines(spec)
    elif args.command == "margins":
        out = _cmd_margins(spec, args)
    elif args.command == "readout":
        out = _cmd_readout(args)
    elif args.command == "shard":
        out = _cmd_shard(spec, args)
    elif args.command == "serve":
        out = _cmd_serve(args)
    elif args.command == "store":
        out = _cmd_store(args)
    elif args.command == "calibrate":
        out = _cmd_calibrate()
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.command)

    print(out)
    if data is not None:
        csv_path = getattr(args, "csv", None)
        if csv_path and args.command in ("fig7", "fig8"):
            series_to_csv(data, csv_path)
            print(f"wrote {csv_path}")
        json_path = getattr(args, "json", None)
        if json_path:
            to_json(data, json_path)
            print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
