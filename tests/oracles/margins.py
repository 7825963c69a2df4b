"""Scalar margin loops: per-pair analytic margins and the margin-yield MC."""

from __future__ import annotations

import numpy as np

from repro.crossbar.montecarlo import (
    MonteCarloMarginYield,
    yield_kernel,
    yield_result,
)
from repro.device.threshold import LevelScheme
from repro.device.variability import DEFAULT_SIGMA_T
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


def applied_voltages(address: np.ndarray, scheme: LevelScheme) -> np.ndarray:
    """Per-address reference of :func:`repro.sim.margins.applied_voltage_matrix`:
    the per-region gate voltages that select pattern ``address``, half a
    level spacing above the addressed digit's nominal VT."""
    address = np.asarray(address)
    levels = np.asarray(scheme.levels)
    return levels[address] + scheme.spacing / 2.0


def select_margins_loop(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """Scalar reference: one wire per Python iteration (seed semantics)."""
    patterns = np.asarray(patterns)
    levels = np.asarray(scheme.levels)
    nominal = levels[patterns]
    std = sigma_t * np.sqrt(np.asarray(nu, dtype=float))
    out = np.empty(patterns.shape[0])
    for i in range(patterns.shape[0]):
        va = applied_voltages(patterns[i], scheme)
        out[i] = np.min(va - nominal[i] - k_sigma * std[i])
    return out


def block_margins_loop(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """Scalar reference: the original O(N^2) per-pair Python loop."""
    patterns = np.asarray(patterns)
    levels = np.asarray(scheme.levels)
    nominal = levels[patterns]
    std = sigma_t * np.sqrt(np.asarray(nu, dtype=float))
    n_wires = patterns.shape[0]
    out = np.full(n_wires, np.inf)
    for i in range(n_wires):
        va = applied_voltages(patterns[i], scheme)
        for u in range(n_wires):
            if u == i or (patterns[u] == patterns[i]).all():
                continue
            pair = np.max(nominal[u] - k_sigma * std[u] - va)
            out[i] = min(out[i], pair)
    return out


def realised_margins_loop(
    vt: np.ndarray, va: np.ndarray, patterns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-wire realised ``(select, block)`` margins of one VT matrix.

    The per-wire values behind :func:`margin_trial_loop`: select is
    ``min_j (va[i] - vt[i])``, block the pairwise
    ``min_u max_j (vt[u] - va[i])`` over conflicting wires (``+inf``
    when there is none).
    """
    n_wires = patterns.shape[0]
    select = np.empty(n_wires)
    block = np.full(n_wires, np.inf)
    for i in range(n_wires):
        select[i] = np.min(va[i] - vt[i])
        for u in range(n_wires):
            if u == i or (patterns[u] == patterns[i]).all():
                continue
            block[i] = min(block[i], np.max(vt[u] - va[i]))
    return select, block


def margin_trial_loop(
    vt: np.ndarray,
    va: np.ndarray,
    patterns: np.ndarray,
    guard_v: float,
) -> tuple[float, float, float]:
    """One scalar margin-yield trial: the original O(N^2) pairwise loop.

    Returns ``(margin_yield, worst_select, worst_block)`` for one
    realised VT matrix.
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


def simulate_margin_yield_loop(
    spec,
    space,
    samples: int = 200,
    seed: int = 0,
    *,
    k_sigma: float = 3.0,
    max_trials_per_chunk: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> MonteCarloMarginYield:
    """The per-sample margin-yield Monte-Carlo on the engine's streams.

    Draws from the spawned per-block streams in the same order as
    :class:`repro.sim.margins.MarginYieldKernel`, so its sampled yields
    equal :func:`repro.crossbar.montecarlo.simulate_margin_yield`'s.
    """
    validate_samples(samples)
    validate_chunk(max_trials_per_chunk)
    kernel = yield_kernel(spec, space, k_sigma)
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
                myield[t], select[t], block[t] = margin_trial_loop(
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
