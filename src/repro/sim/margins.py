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
  leading trial axis of the sim engine (spawned per-block streams,
  Welford accumulators) and counts, per trial, the fraction of wires
  whose *realised* select and block margins clear the sensing guard
  band — reducing once per distinct address and once per VT level
  rather than once per (wire, region).

Exactness contract
------------------
The broadcast paths perform the same elementwise IEEE operations in
the same order as the scalar loops (gather, subtract, multiply,
exact min/max reductions), so their outputs are **byte-identical** to
the scalar per-pair loops kept with the test oracles — not merely
close.

The Monte-Carlo kernel reorders its block reduction but not its
values.  Rounding is monotone: for a fixed applied voltage ``c``,
``fl(x - c)`` is non-decreasing in ``x``, so

    ``max_{j in J} fl(x_j - c) == fl(max_{j in J} x_j - c)``

exactly, for any set ``J`` of regions sharing ``c``.  Grouping each
address's regions by applied voltage (one group per VT level) and
taking min/max — both exact — in any order therefore reproduces the
scalar pairwise loop bit for bit; and because round-to-nearest is
symmetric, ``fl(c - x) == -fl(x - c)``, so the select margins are the
negated ``u = i`` entries of the same reduction.  The kernel draws its
normals in the same stream order as the scalar per-sample oracle, so
the two produce identical sampled yields, and the spawned-stream plan
of :mod:`repro.sim.batch` makes results independent of
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
from repro.sim.batch import validate_k_sigma
from repro.sim.engine import TrialKernel

#: Row-block element budget for the pairwise broadcast (~32 MB float64).
_PAIR_BLOCK_ELEMENTS = 4_000_000

#: Trial-slab element budget of the margin-yield kernel (800 KB
#: float64: 640 trials of a 20-wire, 8-region half cave).  A block is
#: drawn, transformed and reduced one slab at a time, so its draw
#: buffer, the transposed VT copy and the two per-wire row buffers stay
#: in a core's L2 cache.
_TRIAL_SLAB_ELEMENTS = 102_400


def applied_voltage_matrix(patterns: np.ndarray, scheme: LevelScheme) -> np.ndarray:
    """``(N, M)`` applied-voltage grid: every wire's own address at once.

    Row ``i`` holds the per-region gate voltages that select pattern
    ``i``: each mesowire is driven half a level spacing above the
    addressed digit's nominal VT, high enough to turn that level on and
    low enough to keep the next level off.
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
    """k-sigma conduction margin of every wire under its own address.

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
    """k-sigma blocking margin of every wire's address vs the other wires.

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

    The block reduction runs once per *distinct address*, not once per
    wire: the applied voltages and the conflict set of a wire depend
    only on its pattern, so copies in other contact groups share one
    row.  Within an address, regions are grouped by applied voltage
    ``c`` (one value per VT level).  Rounding is monotone, so for a
    fixed ``c`` the realised difference ``fl(x - c)`` is non-decreasing
    in ``x`` and, with ``J_c = {j: va[i, j] = c}``,

        ``max_j fl(vt[u, j] - va[i, j]) == max_c fl(max_{j in J_c} vt[u, j] - c)``

    holds exactly: each wire's per-level VT maxima are formed first and
    shifted once per level.  The select margin of a wire is the same
    quantity at ``u = i`` with the sign flipped
    (``min_j fl(va - vt) == -max_j fl(vt - va)``, exact under
    round-to-nearest), so it reuses its address's row.

    :meth:`sample` tiles the trial axis into slabs: each slab's normals
    are drawn in trial order into one reused buffer, turned into VTs in
    place, reduced through :meth:`realised_margins` (which copies them
    into an ``(M, N, slab)`` region-major, wire-major transpose) and
    folded into the per-trial metrics, so no block-sized array exists.
    The buffers live only for one call, so :meth:`sample` is
    re-entrant.
    """

    metrics = ("margin_yield", "select_margin", "block_margin")
    stream_mode = "spawn"

    def __init__(self, decoder, k_sigma: float = 3.0) -> None:
        self.k_sigma = validate_k_sigma(k_sigma)
        self.patterns = np.asarray(decoder.patterns)
        scheme = decoder.scheme
        levels = np.asarray(scheme.levels)
        self.nominal = levels[self.patterns]
        self.std = decoder.sigma_t * np.sqrt(np.asarray(decoder.nu, dtype=float))
        self.va = applied_voltage_matrix(self.patterns, scheme)
        self.conflicts = conflict_matrix(self.patterns)
        self.has_conflict = self.conflicts.any(axis=1)
        if not self.has_conflict.any():
            raise ValueError(
                "margin yield is undefined: no wire has a conflicting "
                "partner (all patterns identical)"
            )
        #: Sensing guard band [V]: k per-dose sigma units of headroom.
        self.guard_v = self.k_sigma * decoder.sigma_t
        # one entry per distinct address: the wires carrying it and its
        # regions grouped by applied voltage, ((c, regions), ...)
        _, owner = np.unique(self.patterns, axis=0, return_inverse=True)
        owner = owner.reshape(-1)
        self._addresses = []
        for k in range(owner.max() + 1):
            wires = np.flatnonzero(owner == k)
            row = self.va[wires[0]]
            groups = tuple(
                (c, tuple(np.flatnonzero(row == c).tolist())) for c in np.unique(row)
            )
            self._addresses.append((wires, groups))

    def realised_margins(self, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-wire select/block margins of realised VTs ``(..., N, M)``.

        Returns ``(select, block)`` of shape ``(..., N)``; wires with
        no conflicting partner block at ``+inf``.
        """
        vt = np.asarray(vt)
        n_wires, m = self.patterns.shape
        flat = vt.reshape(-1, n_wires, m)
        trials = flat.shape[0]
        select = np.empty((trials, n_wires))
        block = np.empty((trials, n_wires))
        slab = max(1, _TRIAL_SLAB_ELEMENTS // (m * n_wires))
        width = min(slab, trials)
        # flat scratch: a prefix view is contiguous for any slab width
        region_buf = np.empty(m * n_wires * width)
        pair_buf = np.empty(n_wires * width)
        level_buf = np.empty(n_wires * width)
        for start in range(0, trials, slab):
            stop = min(start + slab, trials)
            w = stop - start
            # regions[j, u, t] = vt[t, u, j]
            regions = region_buf[: m * n_wires * w].reshape(m, n_wires, w)
            np.copyto(regions, flat[start:stop].transpose(2, 1, 0))
            pair = pair_buf[: n_wires * w].reshape(n_wires, w)
            level = level_buf[: n_wires * w].reshape(n_wires, w)
            select_t = select[start:stop].T
            block_t = block[start:stop].T
            for wires, groups in self._addresses:
                # pair[u, t] = max_j fl(vt[t, u, j] - va[i, j]), i in wires
                for g, (c, js) in enumerate(groups):
                    top = regions[js[0]]
                    if len(js) > 1:
                        top = np.maximum(top, regions[js[1]], out=level)
                        for j in js[2:]:
                            np.maximum(level, regions[j], out=level)
                    if g == 0:
                        np.subtract(top, c, out=pair)
                    else:
                        np.subtract(top, c, out=level)
                        np.maximum(pair, level, out=pair)
                select_t[wires] = pair[wires]
                # the address's own wires never block it
                pair[wires] = np.inf
                block_t[wires] = pair.min(axis=0)
        # select = -max_j fl(vt - va); 0 - x also maps a -0.0 to +0.0
        np.subtract(0.0, select, out=select)
        return select.reshape(vt.shape[:-1]), block.reshape(vt.shape[:-1])

    def sample(self, rng: np.random.Generator, trials: int) -> dict:
        n_wires, m = self.patterns.shape
        slab = max(1, _TRIAL_SLAB_ELEMENTS // (m * n_wires))
        z_buf = np.empty(min(slab, trials) * n_wires * m)
        out = {name: np.empty(trials) for name in self.metrics}
        for start in range(0, trials, slab):
            stop = min(start + slab, trials)
            # the slab's rows of nominal + std * z, drawn in trial order
            z = z_buf[: (stop - start) * n_wires * m].reshape(-1, n_wires, m)
            rng.standard_normal(out=z)
            np.multiply(self.std, z, out=z)
            np.add(self.nominal, z, out=z)
            select, block = self.realised_margins(z)
            worst = np.minimum(select, block)
            # wires without a conflicting partner already block at +inf,
            # so the row-min is the worst margin over conflicting wires
            out["margin_yield"][start:stop] = (worst > self.guard_v).mean(axis=1)
            out["select_margin"][start:stop] = select.min(axis=1)
            out["block_margin"][start:stop] = block.min(axis=1)
        return out
