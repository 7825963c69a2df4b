"""Exact merger: recombine shard results into the single-host objects.

The merge contract is **byte identity**, not statistical agreement:

* **sweep** — shard result files store the row records verbatim, in
  row order; concatenating them in shard-index order and rebuilding
  through :meth:`repro.exp.results.SweepResult.from_records` produces
  the same columns, dtypes and serialised CSV/JSON bytes as
  ``run_sweep`` on one host, because that is literally the same
  constructor fed the same records in the same order.
* **marginmc / cavemc** — shard files store one ``(count, mean, M2)``
  moment state per stream block.  The merger folds the states in
  global block order with :meth:`MomentSet.fold`, the call a
  single-host :class:`repro.sim.engine.MonteCarloEngine` run folds the
  same block states with.  Chan's combine is not reordering-exact in
  floating point, so per-block granularity — not per-shard aggregates —
  is what makes the merged mean/std bit-equal for *any* shard count.
  The result object comes from
  :func:`repro.crossbar.montecarlo.yield_result`, the constructor the
  single-host runs use.
"""

from __future__ import annotations

from pathlib import Path

from repro import api
from repro.crossbar.montecarlo import yield_result
from repro.exp.results import SweepResult
from repro.sim.accumulators import MomentSet

from repro.dist.manifest import (
    RESULT_MISSING,
    ManifestTail,
    load_job,
    read_result,
)
from repro.dist.spec import ShardPlan


def load_results(job_dir: str | Path, plan: ShardPlan | None = None) -> list[dict]:
    """All shard result documents in shard-index order, validated.

    Raises :class:`FileNotFoundError` if any shard is incomplete
    (listing the missing indices) and :class:`ValueError` naming the
    shard and the reason if a result file fails
    :func:`~repro.dist.manifest.read_result` — truncated, or belonging
    to another job or shard: content keys make mixing two jobs in one
    directory a hard error, not a silent wrong answer.  Each result
    file is read and parsed once.
    """
    job_dir = Path(job_dir)
    plan = plan if plan is not None else load_job(job_dir)
    recorded = ManifestTail(job_dir).read()
    results = []
    missing = []
    rejected = []
    for shard in plan.shards:
        if shard.key not in recorded:
            missing.append(shard.index)
            continue
        doc, reason = read_result(job_dir, shard)
        if reason == RESULT_MISSING:
            missing.append(shard.index)
        elif reason is not None:
            rejected.append((shard.index, reason))
        else:
            results.append(doc)
    if missing:
        raise FileNotFoundError(
            f"job {plan.key} incomplete: shards {missing} have no recorded "
            f"result (run `repro shard launch {job_dir}` to finish them)"
        )
    if rejected:
        index, reason = rejected[0]
        raise ValueError(
            f"shard {index} of job {plan.key} cannot be merged: {reason}"
        )
    return results


def job_telemetry(job_dir: str | Path) -> dict | None:
    """Fold every shard's telemetry snapshot into one job-level profile.

    Shard results ship the scoped :meth:`repro.obs.Telemetry.snapshot`
    of their run; folding them in shard-index order with
    :func:`repro.obs.merge_snapshots` gives the same associative merge
    the in-process worker pool uses, so ``repro shard merge --profile``
    renders one coherent span tree for the whole job.  Returns None
    when no shard carried telemetry (results from an older layout).
    """
    from repro.obs import merge_snapshots

    plan = load_job(job_dir)
    results = load_results(job_dir, plan)
    merged: dict | None = None
    for doc in results:
        snap = doc.get("telemetry")
        if snap:
            merged = merge_snapshots(merged, snap)
    return merged


def merge_results(job_dir: str | Path):
    """Merge a completed job directory into its single-host result object.

    Returns a :class:`SweepResult` (sweep jobs), a
    :class:`~repro.crossbar.montecarlo.MonteCarloMarginYield` (marginmc)
    or a :class:`~repro.crossbar.montecarlo.MonteCarloYield` (cavemc).
    """
    plan = load_job(job_dir)
    results = load_results(job_dir, plan)
    request = api.parse_request(plan.job["request"])
    if isinstance(request, api.SweepRequest):
        return SweepResult.from_records(
            [r for doc in results for r in doc["data"]["records"]]
        )
    kernel = api.mc_kernel(request)
    acc = MomentSet(kernel.metrics)
    for doc in results:
        per_metric = [doc["data"]["metrics"][name] for name in kernel.metrics]
        for states in zip(*per_metric):
            acc.fold(dict(zip(kernel.metrics, states)))
    for name, moments in acc.moments.items():
        if moments.count != request.samples:
            raise ValueError(
                f"merged {name} covers {moments.count} trials, expected "
                f"{request.samples} — shard results inconsistent"
            )
    return yield_result(kernel, request.samples, acc)
