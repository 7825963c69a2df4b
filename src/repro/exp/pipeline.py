"""Design-space evaluation pipeline: cached, parallel, columnar sweeps.

The single engine behind every analytic sweep in the repo — the Fig. 5-8
data generators, ``family_yield_sweep`` / ``family_area_sweep``, the
design optimizer, and the ``repro sweep`` CLI all run here.  A sweep is

1. an iterable of :class:`~repro.exp.designpoint.DesignPoint` (the
   hashable unit of work),
2. a tuple of named *evaluators* (yield, area, complexity, margins,
   Monte-Carlo via the batched sim engine) applied to each point, and
3. an executor: chunked serial, or a ``ProcessPoolExecutor`` when
   ``jobs > 1``.

Each process memoizes code-space and decoder construction (see
:mod:`repro.exp.cache`), so multi-metric sweeps build each (spec, code)
decoder once instead of once per metric per point.  Results come back
as a columnar :class:`~repro.exp.results.SweepResult`; ordering — and
therefore the serialised bytes — is identical for any ``jobs``.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro import obs, schema
from repro.codes.base import CodeSpace
from repro.crossbar.area import effective_bit_area
from repro.crossbar.readout import SCHEMES
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import crossbar_yield, decoder_for
from repro.exp.designpoint import DesignPoint
from repro.exp.results import Record, SweepResult

#: Trace kinds the workload engine accepts.
TRACE_KINDS = ("uniform", "sequential", "zipfian", "bursty")

#: Electrical readout schemes plus the ideal-lookup sentinel.
READOUT_KINDS = ("off", *SCHEMES)

#: The one help string of every ``--seed`` option.
SEED_HELP = (
    "root seed; results are deterministic per seed and independent "
    "of --jobs and --chunk-size"
)


@dataclass(frozen=True)
class SweepParams:
    """Evaluator tuning knobs that are not part of the design point.

    The ``wl_*`` knobs drive the ``workload`` metric (trace-driven
    memory-fleet evaluation); its logical address space is sized from
    the analytic effective-bits figure of each point, so capacity
    shortfalls against the analytic promise show up as access
    failures.  The ``ro_*`` knobs set the crosspoint
    technology and margin floor of the ``readout`` metric (sneak-path
    sense margins of the cave-sized bank).  ``wl_readout`` switches the
    workload metric's reads to electrical sensing under the named
    biasing scheme (``"off"`` keeps ideal lookups), reusing the
    ``ro_*`` crosspoint technology with ``wl_resolution`` as the
    sense-amplifier floor.
    """

    mc_samples: int = schema.knob(
        256,
        ge=1,
        flags=("--mc-samples",),
        help="trials per point for the montecarlo and marginmc metrics",
    )
    mc_seed: int = schema.knob(
        0,
        ge=0,
        flags=("--mc-seed",),
        cli={"default": None},
        help="override the montecarlo root seed (default: --seed)",
    )
    k_sigma: float = schema.knob(
        3.0,
        ge=0,
        flags=("--k-sigma",),
        help="criterion strictness k for the margins and marginmc metrics "
        "(default 3.0)",
    )
    wl_trace: str = schema.knob(
        "zipfian",
        choices=TRACE_KINDS,
        label="trace kind",
        flags=("--wl-trace",),
        help="trace kind for the workload metric (default zipfian)",
    )
    wl_accesses: int = schema.knob(
        4096,
        ge=1,
        flags=("--wl-accesses",),
        help="trace length per point for the workload metric",
    )
    wl_instances: int = schema.knob(
        4,
        ge=1,
        flags=("--wl-instances",),
        help="sampled crossbar instances per point for the workload metric",
    )
    wl_seed: int = schema.knob(0, ge=0, flags=("--seed",), help=SEED_HELP)
    wl_ecc: bool = schema.knob(
        False,
        flags=("--wl-ecc",),
        help="protect the workload metric's payloads with SECDED",
    )
    wl_error_rate: float = schema.knob(
        0.0,
        ge=0,
        le=1,
        flags=("--wl-error-rate",),
        help="per-stored-bit write-error probability for the workload metric "
        "(pairs with --wl-ecc to exercise corrected/uncorrectable counts)",
    )
    wl_readout: str = schema.knob(
        "off",
        choices=READOUT_KINDS,
        label="readout scheme",
        flags=("--wl-readout",),
        help="resolve the workload metric's reads electrically under this "
        "biasing scheme (default off: ideal lookups); reuses the "
        "--ro-r-on/--ro-r-off crosspoint technology",
    )
    wl_resolution: float = schema.knob(
        0.0,
        ge=0,
        lt=1,
        label="sense resolution",
        flags=("--wl-resolution",),
        help="sense-amplifier resolution for --wl-readout as a relative margin "
        "floor in [0, 1) (default 0)",
    )
    ro_r_on: float = schema.knob(
        1.0e5,
        gt=0,
        flags=("--ro-r-on",),
        help="crosspoint ON resistance for the readout metric [ohm] (default 1e5)",
    )
    ro_r_off: float = schema.knob(
        1.0e7,
        gt=0,
        flags=("--ro-r-off",),
        help="crosspoint OFF resistance for the readout metric [ohm] "
        "(default 1e7)",
    )
    ro_min_margin: float = schema.knob(
        0.5,
        gt=0,
        lt=1,
        label="margin floor",
        flags=("--ro-min-margin",),
        help="sense-margin floor for the readout metric's max-bank-size figure "
        "(default 0.5)",
    )

    def __post_init__(self) -> None:
        schema.check(self)
        if not self.ro_r_off > self.ro_r_on:
            raise schema.error(
                self,
                "ro_r_on",
                f"r_off must exceed r_on, got r_off={self.ro_r_off}, "
                f"r_on={self.ro_r_on}",
            )


#: Evaluator signature: (spec, code, params) -> metric columns.
Evaluator = Callable[[CrossbarSpec, CodeSpace, SweepParams], Mapping[str, object]]


def _eval_yield(
    spec: CrossbarSpec, space: CodeSpace, params: SweepParams
) -> Mapping[str, object]:
    """Analytic cave-yield figures (Fig. 7 metric) of one point."""
    r = crossbar_yield(spec, space)
    return {
        "code_name": r.code_name,
        "code_space": r.code_space,
        "groups": r.groups,
        "electrical_yield": r.electrical_yield,
        "geometric_yield": r.geometric_yield,
        "cave_yield": r.cave_yield,
        "raw_bits": r.raw_bits,
        "effective_bits": r.effective_bits,
    }


def _eval_area(
    spec: CrossbarSpec, space: CodeSpace, params: SweepParams
) -> Mapping[str, object]:
    """Floorplan / effective-bit-area figures (Fig. 8 metric)."""
    r = effective_bit_area(spec, space)
    return {
        "code_name": r.code_name,
        "total_area_nm2": r.total_area_nm2,
        "raw_bit_area_nm2": r.raw_bit_area_nm2,
        "effective_bit_area_nm2": r.effective_bit_area_nm2,
        "cave_yield": r.cave_yield,
    }


def _eval_complexity(
    spec: CrossbarSpec, space: CodeSpace, params: SweepParams
) -> Mapping[str, object]:
    """Fabrication complexity and variability cost (Prop. 3 metrics)."""
    decoder = decoder_for(spec, space)
    return {
        "phi": decoder.fabrication_complexity,
        "sigma_norm_V2": decoder.sigma_norm,
        "average_variability_V2": decoder.average_variability,
    }


def _eval_margins(
    spec: CrossbarSpec, space: CodeSpace, params: SweepParams
) -> Mapping[str, object]:
    """Worst-case k-sigma sense margins of the half cave.

    The figures of :func:`repro.decoder.margins.margin_report`, the one
    margin computation behind ``repro margins`` too; it reads the
    memoized pattern and dose-count matrices, so margin grids share
    the fabrication caches.
    """
    from repro.decoder.margins import margin_report

    report = margin_report(
        space,
        spec.nanowires_per_half_cave,
        sigma_t=spec.sigma_t,
        k_sigma=params.k_sigma,
    )
    return {
        "select_margin_v": report.select_margin_v,
        "block_margin_v": report.block_margin_v,
        "margin_yield": report.margin_yield,
        "margin_passes": report.passes,
    }


def _eval_montecarlo(
    spec: CrossbarSpec, space: CodeSpace, params: SweepParams
) -> Mapping[str, object]:
    """Batched Monte-Carlo cross-check (PR-1 sim engine).

    Every point uses the same root seed, so a point's estimate depends
    only on (spec, code, params) — never on its position in the grid or
    on the executor; sweeps stay byte-reproducible at any ``jobs``.
    """
    from repro.crossbar.montecarlo import simulate_cave_yield

    mc = simulate_cave_yield(
        spec,
        space,
        samples=params.mc_samples,
        seed=params.mc_seed,
    )
    return {
        "mc_samples": mc.samples,
        "mc_cave_yield": mc.mean_cave_yield,
        "mc_stderr": mc.stderr,
        "mc_electrical_yield": mc.mean_electrical_yield,
        "mc_geometric_yield": mc.mean_geometric_yield,
    }


def _eval_marginmc(
    spec: CrossbarSpec, space: CodeSpace, params: SweepParams
) -> Mapping[str, object]:
    """Batched k-sigma margin-yield Monte-Carlo (sense-margin criterion).

    Same root-seed discipline as the ``montecarlo`` evaluator: every
    point's estimate depends only on (spec, code, params), so sweeps
    stay byte-reproducible at any ``jobs``.
    """
    from repro.crossbar.montecarlo import simulate_margin_yield

    mc = simulate_margin_yield(
        spec,
        space,
        samples=params.mc_samples,
        seed=params.mc_seed,
        k_sigma=params.k_sigma,
    )
    return {
        "mmc_samples": mc.samples,
        "mmc_margin_yield": mc.mean_margin_yield,
        "mmc_stderr": mc.stderr,
        "mmc_select_margin_v": mc.mean_select_margin,
        "mmc_block_margin_v": mc.mean_block_margin,
    }


def _eval_workload(
    spec: CrossbarSpec, space: CodeSpace, params: SweepParams
) -> Mapping[str, object]:
    """Trace-driven memory-fleet figures (workload subsystem).

    Samples a small fleet of defective instances per point and replays
    a synthetic trace; like the Monte-Carlo evaluator, every point uses
    the same root seed so results depend only on (spec, code, params)
    and sweeps stay byte-reproducible at any ``jobs``.
    """
    from repro.sim.batch import DEFAULT_MAX_TRIALS_PER_CHUNK
    from repro.workload import exhausted_fraction, run_workload

    fleet, trace, r = run_workload(
        spec,
        space,
        trace=params.wl_trace,
        accesses=params.wl_accesses,
        instances=params.wl_instances,
        seed=params.wl_seed,
        write_fraction=0.5,
        parity_bits=6 if params.wl_ecc else 0,
        address_space=0,
        error_rate=params.wl_error_rate,
        readout=params.wl_readout,
        r_on=params.ro_r_on,
        r_off=params.ro_r_off,
        v_read=0.5,
        resolution=params.wl_resolution,
        chunk_size=DEFAULT_MAX_TRIALS_PER_CHUNK,
    )
    columns = {
        "wl_trace": trace.name,
        "wl_accesses": trace.accesses,
        "wl_instances": fleet.instances,
        "wl_address_space": trace.address_space,
        "wl_capacity_mean": r["effective_capacity_bits"].mean,
        "wl_capacity_std": r["effective_capacity_bits"].std,
        "wl_efficiency_mean": r["efficiency"].mean,
        "wl_failure_rate_mean": r["failure_rate"].mean,
        "wl_first_failure_mean": r["first_failure_index"].mean,
        "wl_exhausted_fraction": exhausted_fraction(r.per_instance),
        "wl_corrected_mean": r["corrected"].mean,
        "wl_uncorrectable_mean": r["uncorrectable"].mean,
    }
    if r.electrical:
        columns.update(
            {
                "wl_readout": params.wl_readout,
                "wl_misread_rate_mean": r["misread_rate"].mean,
                "wl_margin_mean": r["margin_mean"].mean,
                "wl_margin_min_mean": r["margin_min"].mean,
                "wl_ecc_masked_mean": r["ecc_masked_misreads"].mean,
                "wl_cache_hit_rate": r.cache["hit_rate"],
            }
        )
    return columns


@functools.lru_cache(maxsize=None)
def _bank_margins(bank: int, r_on: float, r_off: float) -> tuple[float, float, float]:
    """(float, ground, half_v) margins of one bank size, memoized.

    Readout margins depend only on the bank size and the ``ro_*``
    technology params — never on the code choice — so a sweep stamps
    each distinct bank once instead of once per design point.
    """
    from repro.sim.readout import scheme_margin_sweep

    sweep = scheme_margin_sweep((bank,), r_on=r_on, r_off=r_off)
    return (sweep["float"][0], sweep["ground"][0], sweep["half_v"][0])


@functools.lru_cache(maxsize=None)
def _max_float_bank(r_on: float, r_off: float, min_margin: float) -> int:
    """Largest float-scheme bank above the margin floor, memoized.

    The figure depends only on the readout params — never on the design
    point — so a sweep computes the doubling search once per params set
    instead of once per row.
    """
    from repro.crossbar.readout import ReadoutModel, max_bank_size

    model = ReadoutModel(r_on=r_on, r_off=r_off, scheme="float")
    return max_bank_size(model, min_margin, limit=256)


def _eval_readout(
    spec: CrossbarSpec, space: CodeSpace, params: SweepParams
) -> Mapping[str, object]:
    """Sneak-path sense margins of the cave-sized bank (readout engine).

    The bank is the cave-sized sub-array electrical reads resolve
    against (two mirrored half caves), so the bank size sweeps with the
    ``nanowires`` axis while ``ro_r_on`` / ``ro_r_off`` set the
    crosspoint technology — the grid the paper's "functions as a
    memory" assumption (Sec. 6.1) has to hold over.  Margins of all
    three biasing schemes come from one engine sweep that stamps each
    worst-case background once and shares it across schemes, memoized
    per distinct (bank, technology) pair.
    """
    bank = 2 * spec.nanowires_per_half_cave
    margin_float, margin_ground, margin_half_v = _bank_margins(
        bank, params.ro_r_on, params.ro_r_off
    )
    return {
        "ro_bank_wires": bank,
        "ro_margin_float": margin_float,
        "ro_margin_ground": margin_ground,
        "ro_margin_half_v": margin_half_v,
        "ro_max_float_bank": _max_float_bank(
            params.ro_r_on, params.ro_r_off, params.ro_min_margin
        ),
        "ro_bank_ok": bool(margin_float >= params.ro_min_margin),
    }


EVALUATORS: dict[str, Evaluator] = {
    "yield": _eval_yield,
    "area": _eval_area,
    "complexity": _eval_complexity,
    "margins": _eval_margins,
    "marginmc": _eval_marginmc,
    "montecarlo": _eval_montecarlo,
    "readout": _eval_readout,
    "workload": _eval_workload,
}


def resolve_metrics(metrics: Sequence[str]) -> tuple[str, ...]:
    """Validate metric names against the evaluator registry."""
    out = tuple(metrics)
    unknown = sorted(set(out) - set(EVALUATORS))
    if not out or unknown:
        raise KeyError(
            f"unknown metric(s) {unknown or list(out)}; "
            f"available: {sorted(EVALUATORS)}"
        )
    return out


def evaluate_point(
    point: DesignPoint,
    spec: CrossbarSpec | None = None,
    metrics: Sequence[str] = ("yield",),
    params: SweepParams = SweepParams(),
) -> Record:
    """One result row: the point's axes plus every metric's columns."""
    resolved = point.resolved_spec(spec)
    space = point.code()
    record: Record = point.axes()
    for name in resolve_metrics(metrics):
        with obs.span(f"exp.eval.{name}"):
            record.update(EVALUATORS[name](resolved, space, params))
    obs.counter("exp.points")
    return record


def evaluate_points(
    points: Sequence[DesignPoint],
    spec: CrossbarSpec | None,
    metrics: tuple[str, ...],
    params: SweepParams,
) -> list[Record]:
    """Evaluate one run of points in order; the worker/shard entry point.

    Both the in-process pool of :func:`run_sweep` and the shard runner
    of :mod:`repro.dist` funnel through here, which is why a sharded
    sweep reproduces the single-host rows exactly.
    """
    with obs.span("exp.evaluate_points", points=len(points)):
        return [evaluate_point(p, spec, metrics, params) for p in points]


def _evaluate_chunk_telemetry(
    points: Sequence[DesignPoint],
    spec: CrossbarSpec | None,
    metrics: tuple[str, ...],
    params: SweepParams,
) -> tuple[list[Record], dict | None]:
    """Chunk evaluation plus a scoped telemetry snapshot (pool task).

    A forked worker inherits the parent's live telemetry registry, so
    recording into it directly would double-count the pre-fork state
    when the parent folds results back.  Instead each task collects
    into a fresh scoped registry and ships its snapshot home with the
    records; :func:`run_sweep` absorbs the snapshots in chunk order, so
    ``--jobs N`` reports one coherent tree with the same merge algebra
    as the Welford accumulators.  (The worker keeps the parent's open
    span stack from the fork, so its span paths nest under the parent's
    ``exp.run_sweep`` — snapshots fold onto matching paths.)
    """
    if not obs.enabled():
        return evaluate_points(points, spec, metrics, params), None
    with obs.scoped() as reg:
        records = evaluate_points(points, spec, metrics, params)
        snap = reg.snapshot()
    return records, snap


def _chunked(points: Sequence[DesignPoint], size: int) -> list[Sequence[DesignPoint]]:
    return [points[i : i + size] for i in range(0, len(points), size)]


def _pool(jobs: int) -> ProcessPoolExecutor:
    """Worker pool; fork start method keeps warm caches where available."""
    try:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = None
    return ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)


def run_sweep(
    points: Iterable[DesignPoint],
    metrics: Sequence[str] = ("yield",),
    *,
    spec: CrossbarSpec | None = None,
    jobs: int = 1,
    chunksize: int | None = None,
    params: SweepParams = SweepParams(),
) -> SweepResult:
    """Evaluate ``metrics`` on every design point, columnar result.

    Parameters
    ----------
    points:
        Design points, evaluated in iteration order (row order of the
        result is the point order, independent of the executor).
    metrics:
        Evaluator names from :data:`EVALUATORS`, applied left to right.
    spec:
        Base platform spec; each point's overrides perturb it.
    jobs:
        1 = chunked serial in-process; > 1 = that many worker
        processes.  Results are identical either way.
    chunksize:
        Points per task; defaults to ~4 tasks per worker.
    """
    pts = list(points)
    if not pts:
        raise ValueError("no design points to evaluate")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    override_sets = {tuple(k for k, _ in p.overrides) for p in pts}
    if len(override_sets) > 1:
        raise ValueError(
            "design points must share one spec-override set to form "
            f"uniform columns; got {sorted(override_sets)}"
        )
    names = resolve_metrics(metrics)
    jobs = min(jobs, len(pts))
    if chunksize is None:
        chunksize = max(1, -(-len(pts) // (jobs * 4)))
    chunks = _chunked(pts, chunksize)

    with obs.span("exp.run_sweep", points=len(pts), jobs=jobs) as sp:
        if jobs == 1:
            record_chunks = [
                evaluate_points(chunk, spec, names, params) for chunk in chunks
            ]
        else:
            with _pool(jobs) as pool:
                pairs = list(
                    pool.map(
                        _evaluate_chunk_telemetry,
                        chunks,
                        [spec] * len(chunks),
                        [names] * len(chunks),
                        [params] * len(chunks),
                    )
                )
            record_chunks = [records for records, _ in pairs]
            for _, snap in pairs:
                obs.absorb(snap)
    if obs.enabled():
        obs.gauge("exp.points_per_s", len(pts) / max(sp.wall_s, 1e-9))
    records = [r for chunk in record_chunks for r in chunk]
    return SweepResult.from_records(records)


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` (auto): CPUs, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


#: The ``--jobs`` flag of ``sweep``, ``optimize`` and ``serve``: a
#: worker count, 0 for auto.  An execution knob: never part of a request.
JOBS = schema.Knob(int, ge=0, label="jobs", flags=("--jobs",))


def resolve_jobs(jobs: int) -> int:
    """The worker count a ``--jobs`` value asks for: ``jobs``, or
    :func:`default_jobs` for 0.  A negative value raises
    :class:`repro.schema.SchemaError`."""
    JOBS.check("jobs", jobs)
    return jobs or default_jobs()


def function_sweep(
    axes: Mapping[str, Iterable[object]],
    evaluate: Callable[..., Mapping[str, object]],
) -> SweepResult:
    """Columnar full-factorial sweep of an arbitrary evaluate callable.

    ``evaluate`` receives one keyword argument per axis; each record is
    the axis values plus the evaluation's outputs, collected into a
    :class:`SweepResult` (so every evaluation must return the same
    fields).  Axis values may be any iterable; each is materialised once.
    """
    import itertools

    names = list(axes.keys())
    values = [list(axes[k]) for k in names]
    records: list[Record] = []
    for combo in itertools.product(*values):
        kwargs = dict(zip(names, combo))
        record: Record = dict(kwargs)
        record.update(evaluate(**kwargs))
        records.append(record)
    return SweepResult.from_records(records)
