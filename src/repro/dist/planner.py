"""Shard planner: split a sweep or MC job into deterministic shards.

Planning is a pure function of the job description — the same inputs
always produce the same job key, the same shard keys and the same work
slices — which is what makes checkpoint/resume safe: re-planning an
interrupted job finds the already-written result files by name.

The planner builds the job's :mod:`repro.api` request once; every
shard carries its canonical payload plus a slice:

* **sweep** — the design-point grid of
  :func:`repro.exp.pipeline.run_sweep` is split into contiguous row
  runs.  Every point is evaluated independently and row order is the
  merge order, so concatenating shard records reproduces the
  single-host columnar result byte for byte.
* **marginmc / cavemc** — the trial budget of
  :func:`repro.crossbar.montecarlo.simulate_margin_yield` /
  :func:`~repro.crossbar.montecarlo.simulate_cave_yield` is split at
  stream-block granularity (:func:`repro.sim.batch.total_blocks`).
  Each block owns a spawned child generator whose identity depends
  only on its global block index, so any contiguous block partition
  reproduces the single-host stream order exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.api import McRequest, SweepRequest
from repro.crossbar.spec import CrossbarSpec
from repro.exp.designpoint import DesignPoint
from repro.exp.pipeline import SweepParams
from repro.sim.batch import DEFAULT_STREAM_BLOCK, total_blocks

from repro.dist.spec import ShardPlan, ShardSpec, content_key, split_even


def plan_request(request: SweepRequest | McRequest, *, shards: int) -> ShardPlan:
    """Split a sweep's rows or an MC request's stream blocks into shards.

    ``shards`` is a ceiling: a job with fewer units than the requested
    shard count plans one shard per unit, so a shard never splits a
    design point or a stream block (the reproducibility unit).
    """
    if isinstance(request, SweepRequest):
        units = len(request.points)
    else:
        units = total_blocks(request.samples, request.stream_block)
    payload = request.to_dict()
    ranges = split_even(units, shards)
    key = content_key({"request": payload, "shards": len(ranges)})
    return ShardPlan(
        job={"key": key, "request": payload, "shards": len(ranges)},
        shards=tuple(
            ShardSpec(key, index, len(ranges), payload, start, stop)
            for index, (start, stop) in enumerate(ranges)
        ),
    )


def plan_sweep_shards(
    points: Iterable[DesignPoint],
    metrics: Sequence[str] = ("yield",),
    *,
    shards: int,
    spec: CrossbarSpec | None = None,
    params: SweepParams = SweepParams(),
) -> ShardPlan:
    """Split a design-point grid into contiguous row-run shards."""
    request = SweepRequest(
        points=tuple(points), metrics=metrics, spec=spec, params=params
    )
    return plan_request(request, shards=shards)


def plan_mc_shards(
    kind: str,
    family: str,
    total_length: int,
    *,
    shards: int,
    samples: int,
    n: int = 2,
    spec: CrossbarSpec | None = None,
    seed: int = 0,
    k_sigma: float = 3.0,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> ShardPlan:
    """Split one design's MC trial budget into stream-block-range shards.

    ``kind`` is ``"marginmc"`` (k-sigma margin yield) or ``"cavemc"``
    (cave yield).
    """
    request = McRequest(
        kind=kind,
        family=family.strip().upper(),
        total_length=int(total_length),
        n=int(n),
        samples=int(samples),
        seed=int(seed),
        k_sigma=float(k_sigma),
        stream_block=int(stream_block),
        spec=spec,
    )
    return plan_request(request, shards=shards)
