"""Batched simulation engines (leading batch axis, stacked solves).

Every stochastic result of the reproduction — the Sec. 6.1 cave-yield
cross-check and the DeHon [6] / Hogg [8] stochastic-decoder baselines —
runs through this subsystem: a chunked, stream-reproducible engine that
evaluates whole batches of trials per NumPy call instead of one trial
per Python iteration.  See README.md ("Batched simulation engine") for
the chunking and reproducibility contract.

:mod:`repro.sim.readout` extends the same engine pattern to the
deterministic sneak-path solver: :func:`~repro.sim.readout.sense_currents`
factors a stack of bank states once each, in a fixed operation order,
and reads any cells of them, and every crossbar read —
:class:`repro.crossbar.readout.ReadoutModel`,
:class:`repro.crossbar.array.CrossbarArray` and the electrical workload
engine — goes through it.
"""

from repro.sim.accumulators import MomentSet, StreamingMoments
from repro.sim.batch import (
    DEFAULT_MAX_TRIALS_PER_CHUNK,
    DEFAULT_STREAM_BLOCK,
    Chunk,
    plan_chunks,
    resolve_rng,
    spawn_block_streams,
    validate_chunk,
    validate_k_sigma,
    validate_samples,
)
from repro.sim.engine import (
    CaveYieldKernel,
    MetricSummary,
    MonteCarloEngine,
    RandomCodesKernel,
    RandomContactsKernel,
    SimResult,
    TrialKernel,
)
from repro.sim.margins import (
    MarginYieldKernel,
    applied_voltage_matrix,
    block_margins_batched,
    conflict_matrix,
    pair_block_matrix,
    select_margins_batched,
)
from repro.sim.readout import scheme_margin_sweep

__all__ = [
    "CaveYieldKernel",
    "Chunk",
    "DEFAULT_MAX_TRIALS_PER_CHUNK",
    "DEFAULT_STREAM_BLOCK",
    "MarginYieldKernel",
    "MetricSummary",
    "MomentSet",
    "MonteCarloEngine",
    "RandomCodesKernel",
    "RandomContactsKernel",
    "SimResult",
    "StreamingMoments",
    "TrialKernel",
    "applied_voltage_matrix",
    "block_margins_batched",
    "conflict_matrix",
    "pair_block_matrix",
    "plan_chunks",
    "resolve_rng",
    "scheme_margin_sweep",
    "select_margins_batched",
    "spawn_block_streams",
    "validate_chunk",
    "validate_k_sigma",
    "validate_samples",
]
