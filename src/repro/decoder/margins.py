"""Sense-margin analysis of the decoder (after the paper's reference [2]).

The window model of Sec. 6.1 declares a region good when its VT stays
inside a fixed band.  A circuit-level view asks a sharper question: when
the decoder applies an address, how much voltage *margin* separates the
selected nanowire (all its transistors conducting) from the best
unselected one?  Ben Jamaa et al.'s earlier journal work [2] designs
multi-level decoders around exactly this margin.

Model
-----
Addressing applies, per mesowire, the voltage just above the selected
wire's nominal VT level (half a level spacing above it).  For the
selected wire, every region conducts with margin
``applied - VT_actual``; for an unselected wire, at least one region
must block, with margin ``VT_actual - applied``.  The decoder's *sense
margin* is the worst selected-conduct margin and the worst
unselected-block margin, each degraded by ``k * sigma`` of the region's
accumulated variability (Def. 5).  A k-sigma margin criterion gives an
alternative, more conservative yield model that the ablation bench
compares against the window model.

Execution
---------
Every margin runs on the broadcast engine of :mod:`repro.sim.margins`:
the full select/block margin matrix in whole-array NumPy ops,
byte-identical to the original scalar implementation with its O(N^2)
per-pair Python loop (same elementwise operations, exact min/max
reductions) and >=10x faster on decoder-sized problems.  That scalar
implementation is kept verbatim with the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.base import CodeSpace
from repro.decoder.pattern import pattern_matrix
from repro.decoder.variability import dose_count_matrix
from repro.device.threshold import LevelScheme
from repro.device.variability import DEFAULT_SIGMA_T
from repro.fabrication.doping import DopingPlan


@dataclass(frozen=True)
class MarginReport:
    """Worst-case k-sigma sense margins of one half cave."""

    select_margin_v: float
    block_margin_v: float
    k_sigma: float

    @property
    def worst_margin_v(self) -> float:
        """The binding constraint: min of select and block margins."""
        return min(self.select_margin_v, self.block_margin_v)

    @property
    def passes(self) -> bool:
        """True when both margins stay positive at k sigma."""
        return self.worst_margin_v > 0.0


def applied_voltages(address: np.ndarray, scheme: LevelScheme) -> np.ndarray:
    """Per-region gate voltages that select pattern ``address``.

    Each mesowire is driven half a level spacing above the addressed
    digit's nominal VT: high enough to turn that level on, low enough to
    keep the next level off.
    """
    address = np.asarray(address)
    levels = np.asarray(scheme.levels)
    return levels[address] + scheme.spacing / 2.0


def select_margins(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """k-sigma conduction margin of every wire under its own address.

    For wire i the margin is ``min_j (VA_j - VT_ij - k * sigma_ij)``:
    how far every region stays in conduction when its VT drifts k sigma
    upward.
    """
    from repro.sim.margins import select_margins_batched

    return select_margins_batched(patterns, nu, scheme, sigma_t, k_sigma)


def block_margins(
    patterns: np.ndarray,
    nu: np.ndarray,
    scheme: LevelScheme,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> np.ndarray:
    """k-sigma blocking margin of every wire's address vs the other wires.

    When wire i is addressed, every other wire u must have at least one
    region whose VT exceeds the applied voltage; the margin of the pair
    is the *best* such region (only one needs to block) and the margin
    of address i is the worst pair.  Wires with identical patterns
    (copies in other contact groups) are skipped — the contact group
    disambiguates them.
    """
    from repro.sim.margins import block_margins_batched

    return block_margins_batched(patterns, nu, scheme, sigma_t, k_sigma)


def margin_report(
    space: CodeSpace,
    nanowires: int,
    scheme: LevelScheme | None = None,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> MarginReport:
    """Worst-case sense margins of a half cave patterned with ``space``."""
    scheme = scheme or LevelScheme(space.n)
    patterns = pattern_matrix(space, nanowires)
    plan = DopingPlan.from_code(space, nanowires)
    nu = dose_count_matrix(plan.steps)
    select = select_margins(patterns, nu, scheme, sigma_t, k_sigma)
    block = block_margins(patterns, nu, scheme, sigma_t, k_sigma)
    return MarginReport(
        select_margin_v=float(select.min()),
        block_margin_v=float(block.min()),
        k_sigma=k_sigma,
    )


def margin_yield(
    space: CodeSpace,
    nanowires: int,
    scheme: LevelScheme | None = None,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> float:
    """Fraction of wires with positive select *and* block margins.

    The conservative, margin-based counterpart of the window-model
    electrical yield; used by the margin ablation bench.  For the
    sampled (Monte-Carlo) counterpart see
    :func:`repro.crossbar.montecarlo.simulate_margin_yield`.
    """
    scheme = scheme or LevelScheme(space.n)
    patterns = pattern_matrix(space, nanowires)
    plan = DopingPlan.from_code(space, nanowires)
    nu = dose_count_matrix(plan.steps)
    select = select_margins(patterns, nu, scheme, sigma_t, k_sigma)
    block = block_margins(patterns, nu, scheme, sigma_t, k_sigma)
    ok = (select > 0) & (block > 0)
    return float(ok.mean())
