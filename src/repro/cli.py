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
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from repro import api, obs, schema
from repro.analysis.export import series_to_csv, to_json
from repro.analysis.figures import (
    fig5_fabrication_complexity,
    fig6_variability_maps,
    fig7_crossbar_yield,
    fig8_bit_area,
)
from repro.analysis.report import paper_vs_measured, render_table
from repro.analysis.stats import headline_summary
from repro.codes.base import CodeError
from repro.core.design import DecoderDesign
from repro.core.optimizer import OBJECTIVES, explore_designs
from repro.core.theorems import check_all
from repro.crossbar.readout import ReadoutError
from repro.crossbar.spec import CrossbarSpec
from repro.decoder.stochastic import compare_with_deterministic
from repro.exp.pipeline import SEED_HELP, SweepParams, resolve_jobs
from repro.fabrication.lithography import LithographyRules

__all__ = ["CHUNK_HELP", "FORMAT_HELP", "SEED_HELP", "VIA_HELP", "build_parser", "main"]

# -- shared options layer ------------------------------------------------------
# The request flags and the global platform flags are generated from the
# field declarations of repro.schema; the execution flags are shared by
# name.  Names, defaults, choices and help text therefore agree across
# the whole CLI (pinned by a golden test in tests/test_cli.py).

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

#: The execution flags: never part of a request, never change results.
_EXECUTION = {
    "--chunk-size": dict(type=int, default=65536, help=CHUNK_HELP),
    "--format": dict(default="table", choices=FORMAT_CHOICES, help=FORMAT_HELP),
    "--via": dict(metavar="SOCKET", default=None, help=VIA_HELP),
    "--output": dict(help="write the formatted result to this file"),
}


class _Parser(argparse.ArgumentParser):
    """One error format: ``<prog>: error: <message>``, one line, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


class _UsageError(ValueError):
    """A bad command line only a handler can see (an empty grid, a job
    directory that is not one); :func:`main` reports it like an argparse
    error.  ``flags`` names the argument(s) at fault."""

    def __init__(self, message: str, *flags: str):
        super().__init__(message)
        self.flags = flags


#: ``shard status --interval``: checked before the first poll.
_INTERVAL = schema.Knob(float, gt=0, label="interval", flags=("--interval",))


def _dest(flags: tuple[str, ...]) -> str:
    """The namespace attribute argparse stores a flag under."""
    long = [flag for flag in flags if flag.startswith("--")]
    return (long or list(flags))[0].lstrip("-").replace("-", "_")


def _add_fields(p: argparse.ArgumentParser, cls: type, names: str, **custom) -> None:
    """Add the flags ``cls`` declares for its fields ``names`` (in order).

    Type, default, choices, help and spelling come from the field's
    schema declaration; ``custom`` maps a field to argparse keywords of
    this command only (a CLI default that differs from the dataclass's).
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name in names.split():
        k = schema.knobs(cls)[name]
        kw = {"help": k.help, "default": defaults[name]}
        if k.type is bool:
            kw["action"] = "store_true"
        else:
            kw.update(type=k.type, choices=k.choices)
        kw.update(k.cli, **custom.get(name, {}))
        if kw["default"] is dataclasses.MISSING:
            del kw["default"]
            if k.flags[0].startswith("-"):
                kw["required"] = True
        p.add_argument(*k.flags, **kw)


def _add_execution_args(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_EXECUTION[flag])


def _build(args: argparse.Namespace, cls: type, **fixed):
    """``cls`` built from the flags its schema declares, plus ``fixed``.

    The one request constructor of the CLI.  A flag left at ``None``
    keeps the field's default; a value the schema rejects raises
    :class:`repro.schema.SchemaError`, which :func:`main` reports.
    """
    values = {
        name: value
        for name, k in schema.knobs(cls).items()
        if k.flags and (value := getattr(args, _dest(k.flags), None)) is not None
    }
    return cls(**{**values, **fixed})


def _command(sub, handler, blurb: str) -> argparse.ArgumentParser:
    """The subparser of ``handler`` (``_cmd_<command>``), described by its
    docstring."""
    name = handler.__name__.removeprefix("_cmd_")
    return sub.add_parser(name, help=blurb, description=handler.__doc__)


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    """Grid, metric and :class:`SweepParams` flags of ``sweep`` and
    ``shard plan sweep``."""
    p.add_argument(
        "--families",
        default="TC,GC,BGC,HC,AHC",
        help="comma-separated code families (default: all five)",
    )
    p.add_argument(
        "--lengths",
        default="4,6,8,10",
        help="comma-separated total lengths M (default 4,6,8,10); "
        "inadmissible (family, M) pairs are skipped",
    )
    _add_fields(p, api.McRequest, "n")
    p.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="spec-override axis, e.g. --axis sigma_t=0.04,0.05 "
        "(repeatable; crossed with the code grid)",
    )
    p.add_argument(
        "--metric",
        default="yield",
        help="comma-separated metrics: yield,area,complexity,margins,marginmc,"
        "montecarlo,readout,workload (default yield)",
    )
    _add_fields(
        p,
        SweepParams,
        "mc_samples k_sigma wl_seed mc_seed wl_trace wl_accesses wl_instances "
        "wl_ecc wl_error_rate wl_readout wl_resolution ro_r_on ro_r_off "
        "ro_min_margin",
    )


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for tests and docs)."""
    parser = _Parser(
        prog="repro",
        description=(
            "Reproduction of 'Decoding Nanowire Arrays Fabricated with "
            "the Multi-Spacer Patterning Technique' (DAC 2009)."
        ),
    )
    _add_fields(
        parser,
        CrossbarSpec,
        "raw_kilobytes nanowires_per_half_cave sigma_t window_margin",
    )
    _add_fields(parser, LithographyRules, "contact_gap_factor")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="after the command, print the telemetry span tree and top "
        "counters to stderr (stdout is unchanged)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="stream telemetry events to this JSONL file (one line per "
        "closed span plus a final metric snapshot; stable schema, see "
        "README 'Observability')",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="content-addressed result store directory (default: "
        "$REPRO_STORE if set); sweep/simulate/memsim/margins results "
        "are served from and committed to it",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
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
    _add_fields(p, api.McRequest, "family total_length n")

    p = sub.add_parser("optimize", help="explore the design space")
    p.add_argument(
        "--objective",
        default="bit_area",
        choices=list(OBJECTIVES),
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the exploration (0 = auto)",
    )

    p = _command(sub, _cmd_sweep, "design-space sweep on the evaluation pipeline")
    _add_sweep_args(p)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial, 0 = auto); results are identical "
        "for any value. With --via the daemon's own --jobs applies",
    )
    _add_execution_args(p, "--format", "--via", "--output")

    p = sub.add_parser("simulate", help="Monte-Carlo yield of one design")
    fields = "family total_length n samples seed"
    _add_fields(p, api.McRequest, fields, samples={"default": 300})
    _add_execution_args(p, "--chunk-size", "--format", "--via")

    blurb = "trace-driven memory workload over a fleet of instances"
    p = _command(sub, _cmd_memsim, blurb)
    _add_fields(
        p,
        api.WorkloadRequest,
        "family total_length n trace accesses instances write_fraction "
        "address_space",
        accesses={"default": 100_000},
        instances={"default": 16},
    )
    p.add_argument(
        "--ecc",
        action="store_true",
        help="protect payloads with SECDED; trace addresses become "
        "code-block addresses",
    )
    fields = "parity_bits error_rate seed"
    _add_fields(p, api.WorkloadRequest, fields, parity_bits={"default": 6})
    _add_execution_args(p, "--chunk-size")
    _add_fields(p, api.WorkloadRequest, "readout r_on r_off v_read resolution")
    _add_execution_args(p, "--format", "--via")

    sub.add_parser("headline", help="paper-vs-measured headline claims")
    sub.add_parser("theorems", help="run the executable proposition checks")
    sub.add_parser("baselines", help="compare with stochastic decoders [6, 8]")

    p = _command(sub, _cmd_margins, "k-sigma sense margins per code family")
    p.add_argument(
        "--family",
        "--families",
        dest="families",
        default="TC,GC,BGC",
        help="comma-separated code families (default TC,GC,BGC)",
    )
    _add_fields(
        p,
        api.McRequest,
        "total_length n k_sigma samples seed",
        total_length={
            "default": 8,
            "help": "total code length (doping regions, default 8)",
        },
        samples={
            "default": 0,
            "help": "margin-yield Monte-Carlo trials per family "
            "(default 0 = analytic margins only)",
        },
    )
    _add_execution_args(p, "--chunk-size", "--format", "--via")

    p = _command(sub, _cmd_readout, "sneak-path margins vs bank size")
    p.add_argument(
        "--scheme", default="float", choices=["float", "ground", "half_v", "all"]
    )
    p.add_argument(
        "--sizes",
        default="4,8,16,20,32,64",
        help="comma-separated square bank sizes (default 4,8,16,20,32,64)",
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

    p = _command(sub, _cmd_serve, "long-lived result daemon on a unix socket")
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

    p = _command(sub, _cmd_store, "maintain a content-addressed result store")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    ps = store_sub.add_parser("verify", help="digest-verify every object in the store")
    ps.add_argument(
        "root",
        nargs="?",
        help="store directory (default: global --store / $REPRO_STORE)",
    )
    ps.add_argument(
        "--quarantine",
        action="store_true",
        help="rename corrupt objects to .corrupt so the next request "
        "recommits them cleanly",
    )

    p = _command(sub, _cmd_shard, "plan, run and merge distributed shard jobs")
    shard_sub = p.add_subparsers(dest="shard_command", required=True)
    plan = shard_sub.add_parser(
        "plan", help="write a job directory full of shard specs"
    )
    plan_sub = plan.add_subparsers(dest="plan_kind", required=True)
    for kind, blurb, cap in (
        ("sweep", "shard a design-space sweep", "grid size"),
        ("marginmc", "shard a k-sigma margin-yield Monte-Carlo", "stream-block count"),
        ("cavemc", "shard a cave-yield Monte-Carlo", "stream-block count"),
    ):
        ps = plan_sub.add_parser(kind, help=blurb)
        ps.add_argument("job_dir", help="job directory to create")
        if kind != "sweep":
            _add_fields(ps, api.McRequest, "family total_length n")
        ps.add_argument(
            "--shards",
            type=int,
            default=4,
            help=f"shard count (default 4; capped at the {cap})",
        )
        if kind == "sweep":
            _add_sweep_args(ps)
            continue
        _add_fields(
            ps,
            api.McRequest,
            "samples seed stream_block" + (" k_sigma" if kind == "marginmc" else ""),
            samples={
                "default": 100_000,
                "help": "total Monte-Carlo trials across all shards "
                "(default %(default)s)",
            },
            seed={
                "help": "root seed; the merged result is bit-equal to a "
                "single-host run with this seed for any shard count"
            },
        )

    ps = shard_sub.add_parser("run", help="execute one shard spec file")
    ps.add_argument("spec_file", help="a shards/NNNN-<key>.json spec")
    ps.add_argument(
        "--results-dir", help="write the result file here instead of the job's results/"
    )
    ps.add_argument(
        "--no-record",
        action="store_true",
        help="skip the checkpoint-manifest completion line",
    )

    ps = shard_sub.add_parser(
        "launch", help="run every pending shard in supervised local processes"
    )
    ps.add_argument("job_dir")
    ps.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = auto: min(pending, CPUs))",
    )
    ps.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per failed shard before it is quarantined "
        "(default 2)",
    )
    ps.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the exponential re-queue backoff (default 0.5)",
    )
    ps.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="worker lease time-to-live; a worker that stops renewing "
        "for this long is presumed hung and killed (default 15)",
    )

    ps = shard_sub.add_parser("status", help="job progress from the manifest")
    ps.add_argument("job_dir")
    ps.add_argument(
        "--watch",
        action="store_true",
        help="poll until every shard completes, printing one progress "
        "line (units/s, ETA, stragglers) to stderr per interval",
    )
    ps.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch polls (default 2)",
    )

    ps = shard_sub.add_parser(
        "merge", help="merge a completed job into the single-host result"
    )
    ps.add_argument("job_dir")
    _add_execution_args(ps, "--format", "--output")
    return parser


def _json(payload: dict, **tail) -> str:
    """A ``--format json`` document: ``payload``, the uniform ``timing``
    section, then ``tail``.

    The timing is derived from the live telemetry registry at formatting
    time — the command's ``cli.<command>`` span is still open, so
    ``wall_s`` covers everything up to serialisation and ``spans`` holds
    the aggregated tree of the layers the command exercised.
    """
    timing = {"schema_version": obs.SCHEMA_VERSION, "wall_s": obs.current_elapsed()}
    timing["spans"] = (obs.snapshot() or {}).get("spans", {})
    return json.dumps({**payload, "timing": timing, **tail}, indent=2)


def _csv(rows: list[dict]) -> str:
    """A header and one line per row; floats keep their shortest repr."""
    lines = [",".join(rows[0])]
    for row in rows:
        cells = (repr(v) if isinstance(v, float) else str(v) for v in row.values())
        lines.append(",".join(cells))
    return "\n".join(lines)


def _write_output(args: argparse.Namespace, out: str, note: str = "") -> str:
    """``out``, or a one-line note once ``--output`` has received it."""
    if not args.output:
        return out
    Path(args.output).write_text(out + "\n")
    return f"wrote {args.output}{note}"


def _cmd_info(spec: CrossbarSpec, args: argparse.Namespace) -> str:
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


def _figure(args: argparse.Namespace, table: str, data: dict) -> str:
    """A figure's table; its data also goes to ``--json`` and, for the
    per-family series of Figs. 7 and 8, to ``--csv``."""
    out = [table]
    if args.csv and args.command in ("fig7", "fig8"):
        series_to_csv(data, args.csv)
        out.append(f"wrote {args.csv}")
    if args.json:
        to_json(data, args.json)
        out.append(f"wrote {args.json}")
    return "\n".join(out)


def _cmd_fig5(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    data = fig5_fabrication_complexity()
    rows = [[logic, row["TC"], row["GC"]] for logic, row in data.items()]
    return _figure(args, render_table(["logic", "TC", "GC"], rows), data)


def _cmd_fig6(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    data = fig6_variability_maps()
    rows = [
        [f"{fam} (L={length})", float(p.min()), float(p.mean()), float(p.max())]
        for (fam, length), p in sorted(data.items())
    ]
    table = render_table(["panel", "min", "mean", "max"], rows, 2)
    maps = {f"{fam}_L{length}": p for (fam, length), p in data.items()}
    return _figure(args, table, maps)


def _series_figure(args: argparse.Namespace, data: dict, column: str, fmt) -> str:
    """A per-family ``(M, value)`` series figure."""
    rows = [[fam, m, fmt(v)] for fam, points in data.items() for m, v in points]
    return _figure(args, render_table(["family", "M", column], rows), data)


def _cmd_fig7(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    data = fig7_crossbar_yield(spec)
    return _series_figure(args, data, "yield", lambda y: f"{100 * y:.1f}%")


def _cmd_fig8(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    data = fig8_bit_area(spec)
    return _series_figure(args, data, "bit area nm^2", lambda a: f"{a:.0f}")


def _cmd_evaluate(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    # the design fields are checked as those of an MC request on the design
    r = _build(args, api.McRequest, kind="cavemc", spec=spec)
    design = DecoderDesign.build(r.family, r.total_length, n=r.n, spec=spec)
    rows = [[k, v] for k, v in design.summary().items()]
    return render_table(["figure", "value"], rows, 4)


def _number(text: str) -> float:
    """One ``--axis`` value, kept an int when it is one (nanowires)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _grid_from_args(args: argparse.Namespace) -> list:
    """The design-point grid an ``_add_sweep_args`` namespace describes."""
    from repro.codes.registry import design_error
    from repro.exp.designpoint import design_grid

    axes = {}
    for item in args.axis:
        name, _, values = item.partition("=")
        if not values:
            raise _UsageError(f"expects NAME=V1,V2,..., got {item!r}", "--axis")
        try:
            axes[name.strip()] = tuple(_number(v.strip()) for v in values.split(","))
        except ValueError:
            raise _UsageError(f"malformed value list {item!r}", "--axis") from None
    families = tuple(f.strip() for f in args.families.split(",") if f.strip())
    try:
        lengths = tuple(int(m) for m in args.lengths.split(",") if m.strip())
    except ValueError:
        message = f"malformed length list {args.lengths!r}"
        raise _UsageError(message, "--lengths") from None
    try:
        points = design_grid(families, lengths, n=args.valence, axes=axes)
    except CodeError:  # an unknown family: main reports it as it is
        raise
    except ValueError as exc:  # an unknown --axis override name
        raise _UsageError(str(exc), "--axis") from None
    if not points:
        reasons = [
            f" ({f} M={m}: {design_error(f, args.valence, m)})"
            for f in families
            for m in lengths
        ]
        message = "the requested grid has no admissible design points"
        raise _UsageError(message + (reasons[0] if reasons else ""))
    return points


def _sweep_request(spec: CrossbarSpec, args: argparse.Namespace) -> api.SweepRequest:
    """The sweep an ``_add_sweep_args`` namespace describes."""
    mc_seed = args.seed if args.mc_seed is None else args.mc_seed
    return api.SweepRequest(
        points=tuple(_grid_from_args(args)),
        metrics=tuple(m.strip() for m in args.metric.split(",") if m.strip()),
        spec=spec,
        params=_build(args, SweepParams, mc_seed=mc_seed),
    )


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


def _run_request(args: argparse.Namespace, op: str, request, **knobs):
    """Route one api request directly or through a ``--via`` daemon.

    The single junction every adapted subcommand (sweep, simulate,
    memsim, margins) goes through: ``--via SOCKET`` swaps the
    in-process facade call for the daemon client, byte-identically.
    """
    from repro.store import default_store

    if "chunk_size" in knobs:  # checked before the store is opened
        api.CHUNK_SIZE.check("chunk_size", knobs["chunk_size"])
    if args.via:
        from repro.serve import ServeClient

        knobs.pop("jobs", None)  # the daemon evaluates with its own --jobs
        with ServeClient(args.via) as client:
            return getattr(client, op)(request, **knobs)
    return getattr(api, op)(request, store=default_store(args.store), **knobs)


def _cmd_sweep(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    """Evaluate a full-factorial grid of design points (families x lengths x spec axes)
    through the parallel, cached exp pipeline and print a columnar result.
    """
    from repro.exp.cache import cache_stats

    jobs = resolve_jobs(args.jobs)
    request = _sweep_request(spec, args)
    result = _run_request(args, "evaluate", request, jobs=jobs)
    if args.format == "json":
        payload = {"design_points": len(result), "cache": cache_stats()}
        out = _json(payload, records=result.to_records())
    else:
        out = _format_sweep_result(result, args.format)
    return _write_output(args, out, f" ({len(result)} design points)")


def _cmd_shard(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    """Split a sweep or Monte-Carlo job into deterministic, self-describing shards; run
    them here or on any host sharing the job directory; merge the results back
    byte-identically to the single-host run.
    """
    from repro import dist
    from repro.dist.manifest import JOB_FILE
    from repro.exp.results import SweepResult

    if args.shard_command == "run" and not Path(args.spec_file).is_file():
        raise _UsageError(f"no shard spec file {args.spec_file!r}", "spec_file")
    if args.shard_command in ("launch", "status", "merge"):
        if not (Path(args.job_dir) / JOB_FILE).is_file():
            message = f"{args.job_dir!r} is not a shard job directory (no {JOB_FILE})"
            raise _UsageError(message, "job_dir")
    if args.shard_command == "plan":
        if args.plan_kind == "sweep":
            request = _sweep_request(spec, args)
        else:
            request = _build(args, api.McRequest, kind=args.plan_kind, spec=spec)
        plan = dist.plan_request(request, shards=args.shards)
        dist.write_job(args.job_dir, plan)
        rows = [[s.index, s.key, s.units] for s in plan.shards]
        return (
            render_table(["shard", "key", "units"], rows)
            + f"\n\nplanned {plan.kind} job {plan.key}: "
            f"{len(plan.shards)} shard spec(s) in {args.job_dir}"
        )
    if args.shard_command == "run":
        result = dist.run_shard_file(
            args.spec_file, results_dir=args.results_dir, record=not args.no_record
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
        _INTERVAL.check("interval", args.interval)
        while args.watch:
            st = dist.status(args.job_dir)
            rate, eta, stragglers = st["units_per_s"], st["eta_s"], st["stragglers"]
            print(
                f"{st['completed']}/{st['shards']} shards  "
                f"{st['units_done']}/{st['units_total']} units  "
                + (f"{rate:,.1f} units/s  " if rate else "")
                + (f"eta {eta:,.0f}s  " if eta else "")
                + (f"stragglers {stragglers}" if stragglers else ""),
                file=sys.stderr,
            )
            if not st["pending"]:
                break
            time.sleep(args.interval)
        return _json(dist.status(args.job_dir))

    try:
        merged = dist.merge_results(args.job_dir)
    except (OSError, ValueError) as exc:  # an incomplete or damaged job
        raise SystemExit(str(exc)) from exc
    # fold shard telemetry into this process's registry so --profile
    # renders the whole job's span tree, not just the merge step
    obs.absorb(dist.job_telemetry(args.job_dir))
    if isinstance(merged, SweepResult):
        out = _format_sweep_result(merged, args.format)
    else:
        payload = dataclasses.asdict(merged)
        if args.format == "json":
            out = _json(payload)
        elif args.format == "csv":
            out = _csv([payload])
        else:
            out = render_table(["figure", "value"], list(payload.items()), 6)
    return _write_output(args, out)


def _cmd_optimize(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    result = explore_designs(args.objective, spec=spec, jobs=resolve_jobs(args.jobs))
    rows = [
        [p.label, p.cost, f"{100 * p.design.cave_yield:.1f}%"]
        + [f"{p.design.bit_area_nm2:.0f}"]
        for p in result.ranking()
    ]
    header = ["design", f"cost ({args.objective})", "yield", "bit area nm^2"]
    table = render_table(header, rows, 2)
    return table + f"\n\nbest: {result.best.label}"


def _cmd_simulate(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    request = _build(args, api.McRequest, kind="cavemc", spec=spec)
    with obs.span("cli.simulate.run", samples=request.samples) as sp:
        mc = _run_request(args, "simulate", request, chunk_size=args.chunk_size)
    elapsed = max(sp.wall_s, 1e-9)

    if args.format != "table":
        payload = {
            "family": request.family,
            "total_length": request.total_length,
            "samples": mc.samples,
            "mean_cave_yield": mc.mean_cave_yield,
            "std_cave_yield": mc.std_cave_yield,
            "stderr": mc.stderr,
            "mean_electrical_yield": mc.mean_electrical_yield,
            "mean_geometric_yield": mc.mean_geometric_yield,
        }
        return _csv([payload]) if args.format == "csv" else _json(payload)

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
    """Sample a fleet of defective crossbar instances, replay a synthetic access trace
    on every instance through the vectorised workload engine, and report effective
    capacity, access-failure and ECC-repair statistics across the fleet.
    """
    if args.ecc and not args.parity_bits:  # 0 parity bits would mean no ECC
        message = "parity_bits must be >= 2 with --ecc, got 0"
        raise schema.error(api.WorkloadRequest, "parity_bits", message)
    parity_bits = args.parity_bits if args.ecc else 0
    request = _build(args, api.WorkloadRequest, parity_bits=parity_bits, spec=spec)
    with obs.span("cli.memsim.run", accesses=request.accesses) as sp:
        result = _run_request(args, "memsim", request, chunk_size=args.chunk_size)
    rate = result.accesses * result.instances / max(sp.wall_s, 1e-9)

    names = ("trace", "accesses", "reads", "writes", "instances", "address_space")
    head = {name: getattr(result, name) for name in (*names, "ecc")}
    if args.format == "csv":
        flat = {**head, "exhausted_fraction": result.exhausted_fraction}
        for name, stats in result.metrics.items():
            flat[f"{name}_mean"] = stats["mean"]
            flat[f"{name}_std"] = stats["std"]
        return _csv([flat])
    if args.format == "json":
        payload = {**head, "accesses_per_second": rate, "metrics": result.metrics}
        payload["exhausted_fraction"] = result.exhausted_fraction
        if not result.electrical:
            return _json(payload)
        return _json(payload, readout=result.readout, bank_cache=result.cache)

    rows = [
        ["trace", f"{result.trace} ({result.reads} reads / {result.writes} writes)"],
        ["instances", result.instances],
        ["address space", result.address_space],
        ["ecc", f"SECDED r={result.parity_bits}" if result.ecc else "off"],
        ["fleet accesses/s", f"{rate:,.0f}"],
    ]
    if result.electrical:
        readout = result.readout
        scheme = f"{readout['scheme']} (resolution {readout['resolution']})"
        rows.insert(4, ["readout", scheme])
    for name, s in result.metrics.items():
        rows.append([name, f"{s['mean']:,.4g} +- {s['std']:,.4g}"])
    rows.append(["exhausted instances", f"{100 * result.exhausted_fraction:.0f}%"])
    if result.electrical and result.cache is not None:
        c = result.cache
        hits = f"{c['hits']} hits / {c['misses']} misses ({100 * c['hit_rate']:.0f}%)"
        rows.append(["bank cache", hits])
    return render_table(["figure", "value"], rows)


def _cmd_headline(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    claims = headline_summary(spec)
    return paper_vs_measured([(c.description, c.paper, c.measured) for c in claims])


def _cmd_theorems(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    rows = [[name, "PASS" if ok else "FAIL"] for name, ok in check_all().items()]
    return render_table(["proposition", "result"], rows)


def _cmd_baselines(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    rows = []
    for omega, mesowires in ((20, 6), (32, 10), (64, 12), (372, 18)):
        cmp = compare_with_deterministic(spec.nanowires_per_half_cave, omega, mesowires)
        fractions = (cmp.deterministic_fraction, cmp.random_code_fraction)
        fractions += (cmp.random_contact_fraction,)
        rows.append([omega, mesowires, *(f"{100 * f:.1f}%" for f in fractions)])
    header = ["Omega", "mesowires", "MSPT (this paper)", "random codes [6]"]
    return render_table([*header, "random contacts [8]"], rows)


def _cmd_margins(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    """Evaluate the worst-case k-sigma sense margins and the analytic margin yield of
    each code family on the vectorized margin engine; with --samples, also run the
    batched margin-yield Monte-Carlo (realised VTs against the k-sigma sensing guard
    band).
    """
    from repro.codes.registry import make_code
    from repro.decoder.margins import margin_report

    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise _UsageError("expects at least one family name", "--family")
    # one marginmc request per family checks every flag before any
    # compute; only --samples > 0 runs it
    fixed = {"kind": "marginmc", "samples": max(args.samples, 1), "spec": spec}
    requests = [
        _build(args, api.McRequest, family=f.upper(), **fixed) for f in families
    ]
    results = []
    for family, request in zip(families, requests):
        code = make_code(family, request.n, request.total_length)
        report = margin_report(
            code,
            spec.nanowires_per_half_cave,
            sigma_t=spec.sigma_t,
            k_sigma=request.k_sigma,
        )
        entry = {
            "family": family,
            "select_margin_v": report.select_margin_v,
            "block_margin_v": report.block_margin_v,
            "worst_margin_v": report.worst_margin_v,
            "passes": report.passes,
            "margin_yield": report.margin_yield,
        }
        if args.samples > 0:
            # analytic figures above stay local; the sampled yield is a
            # canonical marginmc request, so --via and --store apply
            mc = _run_request(args, "simulate", request, chunk_size=args.chunk_size)
            entry["mc_margin_yield"] = mc.mean_margin_yield
            entry["mc_stderr"] = mc.stderr
            entry["mc_select_margin_v"] = mc.mean_select_margin
            entry["mc_block_margin_v"] = mc.mean_block_margin
        results.append(entry)

    if args.format == "json":
        keys = ("length", "valence", "k_sigma", "samples", "seed")
        return _json({**{k: getattr(args, k) for k in keys}, "families": results})
    if args.format == "csv":
        return _csv(results)

    headers = ["family", "select", "block", "worst", "passes", "margin yield"]
    if args.samples > 0:
        headers += ["mc yield", "mc stderr"]
    rows = []
    for r in results:
        volts = (r[f"{k}_margin_v"] for k in ("select", "block", "worst"))
        row = [r["family"], *(f"{1000 * v:.0f} mV" for v in volts)]
        row += ["yes" if r["passes"] else "no", f"{100 * r['margin_yield']:.1f}%"]
        if args.samples > 0:
            row.append(f"{100 * r['mc_margin_yield']:.2f}%")
            row.append(f"{100 * r['mc_stderr']:.2f}%")
        rows.append(row)
    return render_table(headers, rows)


def _cmd_readout(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    """Worst-case sense margins of square banks on the batched readout engine; --scheme
    all shares each bank size's stamped Laplacians across all three biasing schemes.
    """
    from repro.crossbar.readout import SCHEMES
    from repro.sim.readout import scheme_margin_sweep

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        raise _UsageError(f"malformed value list {args.sizes!r}", "--sizes") from None
    if not sizes or min(sizes) < 1:
        message = f"expects one or more positive bank sizes, got {args.sizes!r}"
        raise _UsageError(message, "--sizes")
    schemes = SCHEMES if args.scheme == "all" else (args.scheme,)
    # one engine sweep: each bank size's stamped Laplacians are shared
    # across every requested scheme; a non-physical technology raises
    # ReadoutError before any solve
    sweep = scheme_margin_sweep(
        sizes, r_on=args.r_on, r_off=args.r_off, schemes=schemes
    )
    rows = [
        [size] + [f"{100 * sweep[s][k]:.1f}%" for s in schemes]
        for k, size in enumerate(sizes)
    ]
    header = list(schemes) if args.scheme == "all" else ["worst-case margin"]
    return render_table(["bank size", *header], rows)


def _cmd_serve(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    """Serve canonical repro.api requests over newline-delimited JSON frames: store hits
    answer immediately and identical in-flight requests coalesce onto one computation.
    Point clients at it with --via.
    """
    from repro.serve import ReproServer
    from repro.store import default_store

    store = default_store(args.store)
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


def _cmd_store(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    """Maintenance for a result store directory: digest-verify every object file
    (verify). The root comes from the positional argument, the global --store, or
    $REPRO_STORE.
    """
    from repro.store import default_store

    store = default_store(args.root or args.store)
    if store is None:
        raise _UsageError(
            "no store directory given (pass one as an argument, via "
            "--store, or set $REPRO_STORE)"
        )
    report = store.verify(quarantine=args.quarantine)
    return json.dumps({"root": str(store.root), **report}, indent=2)


def _cmd_calibrate(spec: CrossbarSpec, args: argparse.Namespace) -> str:
    from repro.analysis.calibration import default_point, grid_search

    points = grid_search(
        margins=(0.9, 1.0), gaps=(0.75, 1.0, 1.25), tolerances=(5.0,)
    )
    rows = [
        [p.window_margin, p.contact_gap_factor, p.alignment_tolerance_nm]
        + [f"{p.error:.3f}"]
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
    A request field or execution flag the schema rejects, a non-physical
    readout technology and any other bad command line end as one
    ``repro[ <cmd>]: error:`` line with exit 2, before any store access
    or compute; so does a design its code family cannot realise
    (``TC -M 5``).  A shard job that fails or cannot be merged ends as
    one line with exit 1.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    prog = parser.prog
    try:
        spec = _build(args, CrossbarSpec, rules=_build(args, LithographyRules))
        prog = f"{prog} {args.command}"
        if args.faults:
            from repro import faults

            try:
                faults.FaultPlan.parse(args.faults)
            except ValueError as exc:
                raise SystemExit(f"repro --faults: {exc}") from exc
            # exported (not just activated) so forked shard workers and the
            # serve daemon's executor threads all see the same plan
            os.environ[faults.ENV_VAR] = args.faults

        sinks = []
        if args.telemetry_out:
            meta = {"command": args.command}
            sinks.append(obs.JsonlSink(args.telemetry_out, meta=meta))
        obs.enable(sinks=sinks)
        try:
            with obs.span(f"cli.{args.command}"):
                print(globals()[f"_cmd_{args.command}"](spec, args))
        finally:
            snap = obs.finish()
            if args.profile and snap is not None:
                print(obs.render_profile(snap), file=sys.stderr)
    except (schema.SchemaError, _UsageError, ReadoutError, CodeError) as exc:
        flags = getattr(exc, "flags", ())
        where = f"argument {'/'.join(flags)}: " if flags else ""
        parser.exit(2, f"{prog}: error: {where}{exc}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
