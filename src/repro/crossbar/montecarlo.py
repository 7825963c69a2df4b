"""Monte-Carlo cross-check of the analytic yield model (Sec. 6.1).

The analytic model multiplies per-region Gaussian window integrals and
an expected geometric boundary loss.  The Monte-Carlo simulator samples
actual threshold voltages (nominal + Gaussian error with the per-region
sigma from the variability matrix) and actual contact-edge positions
(uniform alignment offset), then counts truly addressable nanowires.
Agreement between the two validates the independence assumptions.

Two execution paths share the same sampling kernel
(:class:`repro.sim.engine.CaveYieldKernel`, built by
:func:`yield_kernel`):

* ``method="batched"`` (default) — the chunked engine of
  :mod:`repro.sim`, evaluating every trial on a leading batch axis;
  scales to millions of samples.
* ``method="loop"`` — the original one-trial-per-iteration loop, kept
  as the seeded reference implementation; draw-for-draw compatible
  with the seed version of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.codes.base import CodeSpace
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import decoder_for
from repro.decoder.decoder import HalfCaveDecoder
from repro.sim.accumulators import MomentSet
from repro.sim.batch import (
    DEFAULT_MAX_TRIALS_PER_CHUNK,
    DEFAULT_STREAM_BLOCK,
    block_sizes,
    plan_chunks,
    resolve_rng,
    spawn_block_streams,
    validate_chunk,
    validate_samples,
)


@dataclass(frozen=True)
class MonteCarloYield:
    """Aggregated Monte-Carlo yield estimate."""

    samples: int
    mean_cave_yield: float
    std_cave_yield: float
    mean_electrical_yield: float
    mean_geometric_yield: float

    @property
    def stderr(self) -> float:
        """Standard error of the mean cave yield (0.0 for one sample)."""
        if self.samples <= 1:
            return 0.0
        return self.std_cave_yield / math.sqrt(self.samples)


def yield_kernel(spec: CrossbarSpec, space: CodeSpace, k_sigma: float | None = None):
    """The trial kernel of a yield Monte-Carlo for one code.

    With ``k_sigma`` the k-sigma :class:`repro.sim.margins.MarginYieldKernel`,
    without it the decoder's cached :class:`repro.sim.engine.CaveYieldKernel`.
    The one builder behind :func:`simulate_cave_yield`,
    :func:`simulate_margin_yield` and the :mod:`repro.dist` shard runner.
    """
    decoder = decoder_for(spec, space)
    if k_sigma is None:
        return decoder.montecarlo_kernel
    from repro.sim.margins import MarginYieldKernel

    return MarginYieldKernel(decoder, k_sigma)


def yield_result(
    kernel, samples: int, moments
) -> MonteCarloYield | MonteCarloMarginYield:
    """The result object of a yield kernel's per-metric moments.

    ``moments`` maps each of ``kernel.metrics`` to a summary with
    ``mean`` and ``std``.  The one constructor behind the batched engine
    runs, the margin-yield loop and the shard merger, so every path
    fills the result fields identically.
    """
    from repro.sim.margins import MarginYieldKernel

    if isinstance(kernel, MarginYieldKernel):
        return MonteCarloMarginYield(
            samples=int(samples),
            k_sigma=kernel.k_sigma,
            guard_v=kernel.guard_v,
            mean_margin_yield=moments["margin_yield"].mean,
            std_margin_yield=moments["margin_yield"].std,
            mean_select_margin=moments["select_margin"].mean,
            mean_block_margin=moments["block_margin"].mean,
        )
    return MonteCarloYield(
        samples=int(samples),
        mean_cave_yield=moments["cave"].mean,
        std_cave_yield=moments["cave"].std,
        mean_electrical_yield=moments["electrical"].mean,
        mean_geometric_yield=moments["geometric"].mean,
    )


def sample_electrical_mask(
    decoder: HalfCaveDecoder,
    rng: np.random.Generator,
    trials: int | None = None,
) -> np.ndarray:
    """Per-wire electrical addressability realisations.

    With ``trials=None`` (legacy form) one ``(N,)`` mask is returned;
    with an integer ``trials`` the masks arrive on a leading batch axis
    ``(trials, N)``.  The scalar form is the batch-of-1 path of
    :class:`repro.sim.engine.CaveYieldKernel` and consumes the random
    stream exactly as the seed implementation did.
    """
    kernel = decoder.montecarlo_kernel
    masks = kernel.electrical_masks(rng, 1 if trials is None else trials)
    return masks[0] if trials is None else masks


def sample_geometric_mask(
    decoder: HalfCaveDecoder,
    rng: np.random.Generator,
    trials: int | None = None,
) -> np.ndarray:
    """Per-wire survival realisations of contact-group boundaries.

    Every internal boundary has a dead-plus-ambiguous zone of width
    ``gap + 2 * alignment_tolerance`` centred on the (randomly offset)
    boundary position; wires whose centres fall inside are removed.
    Batch semantics as in :func:`sample_electrical_mask`.
    """
    kernel = decoder.montecarlo_kernel
    masks = kernel.geometric_masks(rng, 1 if trials is None else trials)
    return masks[0] if trials is None else masks


def simulate_cave_yield(
    spec: CrossbarSpec,
    space: CodeSpace,
    samples: int = 200,
    seed: int = 0,
    *,
    method: str = "batched",
    max_trials_per_chunk: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> MonteCarloYield:
    """Monte-Carlo estimate of the half-cave yield for one code.

    ``method="batched"`` runs the chunked engine
    (:func:`repro.sim.engine.simulate_cave_yield_batched`);
    ``method="loop"`` runs the legacy per-trial loop, which draws from
    a single ``default_rng(seed)`` stream exactly like the seed
    implementation.  The two agree within Monte-Carlo error but use
    different stream layouts, so their estimates differ trial-for-trial.
    """
    validate_samples(samples)
    validate_chunk(max_trials_per_chunk)
    if method == "batched":
        from repro.sim.engine import simulate_cave_yield_batched

        return simulate_cave_yield_batched(
            spec,
            space,
            samples=samples,
            seed=seed,
            max_trials_per_chunk=max_trials_per_chunk,
            stream_block=stream_block,
        )
    if method != "loop":
        raise ValueError(f"unknown method {method!r}; use 'batched' or 'loop'")

    kernel = yield_kernel(spec, space)
    rng = np.random.default_rng(seed)
    cave = np.empty(samples)
    electrical = np.empty(samples)
    geometric = np.empty(samples)
    for s in range(samples):
        e_mask = kernel.electrical_masks(rng, 1)[0]
        g_mask = kernel.geometric_masks(rng, 1)[0]
        electrical[s] = e_mask.mean()
        geometric[s] = g_mask.mean()
        cave[s] = (e_mask & g_mask).mean()
    return MonteCarloYield(
        samples=samples,
        mean_cave_yield=float(cave.mean()),
        std_cave_yield=float(cave.std(ddof=1)) if samples > 1 else 0.0,
        mean_electrical_yield=float(electrical.mean()),
        mean_geometric_yield=float(geometric.mean()),
    )


def simulate_halfcave_yield(
    spec: CrossbarSpec,
    space: CodeSpace,
    samples: int = 200,
    seed: int = 0,
    **kwargs,
) -> MonteCarloYield:
    """Alias for the half-cave yield simulation.

    A half cave is the unit the cave-yield Monte-Carlo samples, so
    both names are accepted.  The call is routed straight through
    :func:`simulate_cave_yield`: the default execution path, the
    stderr/SEM guards (``stderr == 0.0`` at one sample) and the
    seeding semantics are exactly those of ``method="batched"``.
    """
    return simulate_cave_yield(spec, space, samples=samples, seed=seed, **kwargs)


# -- k-sigma margin yield (sense-margin criterion of ref [2]) ------------------


@dataclass(frozen=True)
class MonteCarloMarginYield:
    """Aggregated Monte-Carlo estimate of the k-sigma margin yield.

    ``mean_margin_yield`` is the expected fraction of wires whose
    *realised* select and block margins both clear the sensing guard
    band ``guard_v = k_sigma * sigma_T``; ``mean_select_margin`` /
    ``mean_block_margin`` track the expected per-trial worst margins.
    """

    samples: int
    k_sigma: float
    guard_v: float
    mean_margin_yield: float
    std_margin_yield: float
    mean_select_margin: float
    mean_block_margin: float

    @property
    def stderr(self) -> float:
        """Standard error of the mean margin yield (0.0 for one sample)."""
        if self.samples <= 1:
            return 0.0
        return self.std_margin_yield / math.sqrt(self.samples)


def _margin_trial_loop(
    vt: np.ndarray,
    va: np.ndarray,
    patterns: np.ndarray,
    guard_v: float,
) -> tuple[float, float, float]:
    """One scalar margin-yield trial: the original O(N^2) pairwise loop.

    Returns ``(margin_yield, worst_select, worst_block)`` for one
    realised VT matrix; the frozen per-pair reference the batched
    kernel is proven against.
    """
    n_wires = patterns.shape[0]
    passing = 0
    worst_select = np.inf
    worst_block = np.inf
    for i in range(n_wires):
        select = np.min(va[i] - vt[i])
        block = np.inf
        has_conflict = False
        for u in range(n_wires):
            if u == i or (patterns[u] == patterns[i]).all():
                continue
            has_conflict = True
            block = min(block, np.max(vt[u] - va[i]))
        if min(select, block) > guard_v:
            passing += 1
        worst_select = min(worst_select, select)
        if has_conflict:
            worst_block = min(worst_block, block)
    return passing / n_wires, worst_select, worst_block


def simulate_margin_yield(
    spec: CrossbarSpec,
    space: CodeSpace,
    samples: int = 200,
    seed: int = 0,
    *,
    k_sigma: float = 3.0,
    method: str = "batched",
    max_trials_per_chunk: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> MonteCarloMarginYield:
    """Monte-Carlo estimate of the k-sigma margin yield for one code.

    The stochastic counterpart of
    :func:`repro.decoder.margins.margin_yield`: threshold voltages are
    realised per trial (``nominal + sigma_region * z``) and a wire
    passes when its realised select and block margins both exceed the
    sensing guard band ``k_sigma * sigma_T``.

    Both methods draw from the spawned per-block streams of
    :mod:`repro.sim.batch` **in the same order**, so — unlike the
    cave-yield pair — ``method="loop"`` (the scalar per-pair
    reference) and ``method="batched"`` (the
    :class:`repro.sim.margins.MarginYieldKernel` on the chunked
    engine) produce *identical* sampled yields, and neither depends on
    ``max_trials_per_chunk``.
    """
    from repro.sim.engine import MonteCarloEngine

    validate_samples(samples)
    validate_chunk(max_trials_per_chunk)
    kernel = yield_kernel(spec, space, k_sigma)
    if method == "batched":
        engine = MonteCarloEngine(
            kernel,
            max_trials_per_chunk=max_trials_per_chunk,
            stream_block=stream_block,
        )
        result = engine.run(samples, seed)
        return yield_result(kernel, result.samples, result.metrics)
    if method != "loop":
        raise ValueError(f"unknown method {method!r}; use 'batched' or 'loop'")

    root = resolve_rng(seed)
    acc = MomentSet(kernel.metrics)
    for chunk in plan_chunks(samples, max_trials_per_chunk, stream_block):
        widths = block_sizes(chunk, stream_block)
        streams = spawn_block_streams(root, len(widths))
        for stream, width in zip(streams, widths):
            myield = np.empty(width)
            select = np.empty(width)
            block = np.empty(width)
            for t in range(width):
                z = stream.standard_normal(kernel.nominal.shape)
                vt = kernel.nominal + kernel.std * z
                myield[t], select[t], block[t] = _margin_trial_loop(
                    vt, kernel.va, kernel.patterns, kernel.guard_v
                )
            acc.update(
                {
                    "margin_yield": myield,
                    "select_margin": select,
                    "block_margin": block,
                }
            )
    return yield_result(kernel, samples, acc)
