"""Monte-Carlo cross-check of the analytic yield model (Sec. 6.1).

The analytic model multiplies per-region Gaussian window integrals and
an expected geometric boundary loss.  The Monte-Carlo simulator samples
actual threshold voltages (nominal + Gaussian error with the per-region
sigma from the variability matrix) and actual contact-edge positions
(uniform alignment offset), then counts truly addressable nanowires.
Agreement between the two validates the independence assumptions.

Both simulators run the sampling kernel built by :func:`yield_kernel`
on the chunked engine of :mod:`repro.sim`, evaluating every trial on a
leading batch axis; they scale to millions of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.codes.base import CodeSpace
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import decoder_for
from repro.decoder.decoder import HalfCaveDecoder
from repro.sim.batch import DEFAULT_MAX_TRIALS_PER_CHUNK, DEFAULT_STREAM_BLOCK


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
    ``mean`` and ``std``.  The one constructor behind the engine runs
    and the shard merger, so every path fills the result fields
    identically.
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


def _simulate_yield(
    kernel, samples, seed, max_trials_per_chunk, stream_block
) -> MonteCarloYield | MonteCarloMarginYield:
    """Run a :func:`yield_kernel` on the chunked engine; its result object."""
    from repro.sim.engine import MonteCarloEngine

    engine = MonteCarloEngine(
        kernel,
        max_trials_per_chunk=max_trials_per_chunk,
        stream_block=stream_block,
    )
    result = engine.run(samples, seed)
    return yield_result(kernel, result.samples, result.metrics)


def simulate_cave_yield(
    spec: CrossbarSpec,
    space: CodeSpace,
    samples: int = 200,
    seed: int = 0,
    *,
    max_trials_per_chunk: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> MonteCarloYield:
    """Monte-Carlo estimate of the half-cave yield for one code.

    Runs the decoder's :class:`repro.sim.engine.CaveYieldKernel` on the
    chunked engine: results are reproducible for a given ``(seed,
    stream_block)`` independent of ``max_trials_per_chunk``.  The
    seed's per-trial loop, which draws from a single
    ``default_rng(seed)`` stream, is kept with the test oracles as a
    golden fixture: the two agree within Monte-Carlo error but use
    different stream layouts.
    """
    return _simulate_yield(
        yield_kernel(spec, space), samples, seed, max_trials_per_chunk, stream_block
    )


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


def simulate_margin_yield(
    spec: CrossbarSpec,
    space: CodeSpace,
    samples: int = 200,
    seed: int = 0,
    *,
    k_sigma: float = 3.0,
    max_trials_per_chunk: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> MonteCarloMarginYield:
    """Monte-Carlo estimate of the k-sigma margin yield for one code.

    The stochastic counterpart of the analytic
    :attr:`repro.decoder.margins.MarginReport.margin_yield`: threshold
    voltages are realised per trial (``nominal + sigma_region * z``)
    and a wire passes when its realised select and block margins both
    exceed the sensing guard band ``k_sigma * sigma_T``.

    The :class:`repro.sim.margins.MarginYieldKernel` runs on the
    chunked engine, drawing from the spawned per-block streams of
    :mod:`repro.sim.batch` in the same order as the scalar per-pair
    oracle, so the two produce *identical* sampled yields, and neither
    depends on ``max_trials_per_chunk``.
    """
    return _simulate_yield(
        yield_kernel(spec, space, k_sigma),
        samples,
        seed,
        max_trials_per_chunk,
        stream_block,
    )
