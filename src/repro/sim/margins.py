"""Vectorized sense-margin engine and batched k-sigma margin-yield MC.

The scalar reference walks every (selected, unselected) wire pair in
nested Python loops — O(N^2) loop iterations per margin evaluation,
thousands of decoder-sized iterations per design-space sweep.  This
module evaluates the same quantities as whole-matrix broadcasts:

* the **selected-conduct margin matrix** ``VA - VT_nominal - k sigma``
  over all (wire, region) pairs at once;
* the **unselected-block pair matrix** ``max_j (B[u, j] - VA[i, j])``
  over all (address i, wire u) pairs via one broadcast subtract and a
  region-axis reduction — no per-wire Python loops;
* a **batched margin-yield Monte-Carlo**
  (:class:`MarginYieldKernel`) that realises threshold voltages on the
  leading trial axis of the PR-1 sim engine (spawned per-block
  streams, Welford accumulators) and counts, per trial, the fraction
  of wires whose *realised* select and block margins clear the sensing
  guard band.

Exactness contract
------------------
The broadcast paths perform the same elementwise IEEE operations in
the same order as the scalar loops (gather, subtract, multiply,
exact min/max reductions), so their outputs are **byte-identical** to
the scalar per-pair loops kept with the test oracles — not merely
close.  Likewise the Monte-Carlo kernel draws its normals in the same
stream order as the scalar per-sample oracle, so the two produce
identical sampled yields, and the spawned-stream
plan of :mod:`repro.sim.batch` makes results independent of
``max_trials_per_chunk``.

Model
-----
Analytic margins follow Sec. 6.1 / ref [2] (see
:mod:`repro.decoder.margins`): the applied voltage sits half a level
spacing above the selected wire's nominal VT, and the k-sigma
criterion degrades each region by ``k`` accumulated sigmas.  The
Monte-Carlo counterpart realises ``VT = nominal + sigma_region * z``
and demands ``k_sigma`` *per-dose* sigma units (``k_sigma * sigma_T``)
of realised headroom at the sense amplifier — the stochastic analogue
of the deterministic worst-case degradation.
"""

from __future__ import annotations

import numpy as np

from repro.device.threshold import LevelScheme
from repro.device.variability import DEFAULT_SIGMA_T
from repro.sim.engine import TrialKernel

#: Row-block element budget for the pairwise broadcast (~32 MB float64).
_PAIR_BLOCK_ELEMENTS = 4_000_000

#: Trial-slab element budget of the realised pair matrix (800 KB
#: float64: 256 trials of a 20-wire half cave), sized so the running
#: maximum and its difference buffer stay in a core's L2 cache.
_TRIAL_SLAB_ELEMENTS = 102_400


def applied_voltage_matrix(patterns: np.ndarray, scheme: LevelScheme) -> np.ndarray:
    """``(N, M)`` applied-voltage grid: every wire's own address at once.

    Row ``i`` is :func:`repro.decoder.margins.applied_voltages` of
    pattern ``i`` — the per-region gate voltages half a level spacing
    above the addressed digit's nominal VT.
    """
    patterns = np.asarray(patterns)
    levels = np.asarray(scheme.levels)
    return levels[patterns] + scheme.spacing / 2.0


def conflict_matrix(patterns: np.ndarray) -> np.ndarray:
    """``(N, N)`` boolean: ``[i, u]`` True when wire u must block address i.

    Wires with identical patterns (copies in other contact groups) are
    no conflict — the contact group disambiguates them — which also
    removes the diagonal.
    """
    patterns = np.asarray(patterns)
    return ~(patterns[:, None, :] == patterns[None, :, :]).all(axis=2)


def select_margins_batched(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """Broadcast form of :func:`repro.decoder.margins.select_margins`.

    One ``(N, M)`` margin matrix ``VA - nominal - k sigma`` reduced
    over the region axis; byte-identical to the scalar per-wire loop.
    """
    patterns = np.asarray(patterns)
    levels = np.asarray(scheme.levels)
    nominal = levels[patterns]
    std = sigma_t * np.sqrt(np.asarray(nu, dtype=float))
    va = applied_voltage_matrix(patterns, scheme)
    return (va - nominal - k_sigma * std).min(axis=1)


def pair_block_matrix(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """``(N, N)`` k-sigma blocking margins of every (address, wire) pair.

    Entry ``[i, u]`` is the best blocking region of wire u under
    address i (``max_j (nominal[u, j] - k sigma[u, j] - VA[i, j])``);
    non-conflicting pairs (identical patterns, the diagonal) hold
    ``+inf``.  Evaluated as a broadcast subtract over row blocks so
    peak memory stays bounded for large half caves.
    """
    patterns = np.asarray(patterns)
    levels = np.asarray(scheme.levels)
    nominal = levels[patterns]
    std = sigma_t * np.sqrt(np.asarray(nu, dtype=float))
    va = applied_voltage_matrix(patterns, scheme)
    blocker = nominal - k_sigma * std
    n_wires, m = patterns.shape
    conflicts = conflict_matrix(patterns)

    out = np.empty((n_wires, n_wires))
    row_block = max(1, _PAIR_BLOCK_ELEMENTS // max(1, n_wires * m))
    for start in range(0, n_wires, row_block):
        stop = min(start + row_block, n_wires)
        pair = (blocker[None, :, :] - va[start:stop, None, :]).max(axis=2)
        out[start:stop] = pair
    return np.where(conflicts, out, np.inf)


def block_margins_batched(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """Broadcast form of :func:`repro.decoder.margins.block_margins`.

    Worst conflicting pair per address — the row-min of
    :func:`pair_block_matrix`; byte-identical to the scalar pairwise
    loop (``+inf`` where a wire has no conflicting partner).
    """
    return pair_block_matrix(patterns, nu, scheme, sigma_t, k_sigma).min(axis=1)


# -- batched margin-yield Monte-Carlo ------------------------------------------


class MarginYieldKernel(TrialKernel):
    """Batched sampler of the realised k-sigma margin yield.

    One trial realises every doping region's threshold voltage
    (``nominal + sigma_region * z``), recomputes each wire's
    selected-conduct margin and worst unselected-block margin from the
    realised VTs, and reports

    * ``margin_yield`` — fraction of wires whose realised select *and*
      block margins both exceed the sensing guard band
      ``k_sigma * sigma_T``;
    * ``select_margin`` — the trial's worst realised select margin;
    * ``block_margin`` — the trial's worst realised block margin over
      wires that have at least one conflicting partner.

    The pairwise block reduction runs region-major: a running maximum
    over the M regions of a ``(trials, N, N)`` broadcast, so there is
    no per-wire Python loop on the hot path.  The trial axis is tiled
    into cache-sized slabs whose buffers live only for one call, so
    :meth:`sample` is re-entrant.
    """

    metrics = ("margin_yield", "select_margin", "block_margin")
    stream_mode = "spawn"

    def __init__(self, decoder, k_sigma: float = 3.0) -> None:
        if k_sigma < 0:
            raise ValueError(f"k_sigma must be >= 0, got {k_sigma}")
        self.k_sigma = float(k_sigma)
        self.patterns = np.asarray(decoder.patterns)
        scheme = decoder.scheme
        levels = np.asarray(scheme.levels)
        self.nominal = levels[self.patterns]
        self.std = decoder.sigma_t * np.sqrt(np.asarray(decoder.nu, dtype=float))
        self.va = applied_voltage_matrix(self.patterns, scheme)
        self.conflicts = conflict_matrix(self.patterns)
        self.has_conflict = self.conflicts.any(axis=1)
        # start of the running pair maximum: -inf where u must block
        # address i, +inf elsewhere (a non-conflicting pair never limits)
        self._pair_init = np.where(self.conflicts, -np.inf, np.inf)
        if not self.has_conflict.any():
            raise ValueError(
                "margin yield is undefined: no wire has a conflicting "
                "partner (all patterns identical)"
            )
        #: Sensing guard band [V]: k per-dose sigma units of headroom.
        self.guard_v = self.k_sigma * decoder.sigma_t

    def realised_margins(self, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-wire select/block margins of realised VTs ``(..., N, M)``.

        Returns ``(select, block)`` of shape ``(..., N)``; wires with
        no conflicting partner block at ``+inf``.
        """
        vt = np.asarray(vt)
        select = (self.va - vt).min(axis=-1)
        n_wires, m = self.patterns.shape
        flat = vt.reshape(-1, n_wires, m)
        trials = flat.shape[0]
        block = np.empty((trials, n_wires))
        slab = max(1, _TRIAL_SLAB_ELEMENTS // (n_wires * n_wires))
        pair = np.empty((min(slab, trials), n_wires, n_wires))
        diff = np.empty_like(pair)
        for start in range(0, trials, slab):
            stop = min(start + slab, trials)
            p, d = pair[: stop - start], diff[: stop - start]
            for j in range(m):
                # d[t, i, u] = vt[t, u, j] - va[i, j]
                np.subtract(flat[start:stop, None, :, j], self.va[:, j, None], out=d)
                np.maximum(self._pair_init if j == 0 else p, d, out=p)
            p.min(axis=-1, out=block[start:stop])
        return select, block.reshape(vt.shape[:-1])

    def sample(self, rng: np.random.Generator, trials: int) -> dict:
        z = rng.standard_normal((trials,) + self.nominal.shape)
        vt = self.nominal + self.std * z
        select, block = self.realised_margins(vt)
        worst = np.minimum(select, block)
        # wires without a conflicting partner already block at +inf, so
        # the row-min below is the worst margin over conflicting wires
        return {
            "margin_yield": (worst > self.guard_v).mean(axis=1),
            "select_margin": select.min(axis=1),
            "block_margin": block.min(axis=1),
        }
