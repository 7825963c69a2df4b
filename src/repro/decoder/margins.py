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

from repro.codes.base import CodeSpace
from repro.decoder.decoder import HalfCaveDecoder
from repro.device.threshold import LevelScheme
from repro.device.variability import DEFAULT_SIGMA_T


@dataclass(frozen=True)
class MarginReport:
    """Worst-case k-sigma sense margins of one half cave.

    ``margin_yield`` is the fraction of wires with positive select
    *and* block margins: the conservative, margin-based counterpart of
    the window-model electrical yield.  For the sampled (Monte-Carlo)
    counterpart see
    :func:`repro.crossbar.montecarlo.simulate_margin_yield`.
    """

    select_margin_v: float
    block_margin_v: float
    k_sigma: float
    margin_yield: float

    @property
    def worst_margin_v(self) -> float:
        """The binding constraint: min of select and block margins."""
        return min(self.select_margin_v, self.block_margin_v)

    @property
    def passes(self) -> bool:
        """True when both margins stay positive at k sigma."""
        return self.worst_margin_v > 0.0


def margin_report(
    space: CodeSpace,
    nanowires: int,
    scheme: LevelScheme | None = None,
    sigma_t: float = DEFAULT_SIGMA_T,
    k_sigma: float = 3.0,
) -> MarginReport:
    """Sense margins and margin yield of a half cave patterned with ``space``.

    For wire i the select margin is ``min_j (VA_j - VT_ij - k * sigma_ij)``:
    how far every region stays in conduction when its VT drifts k sigma
    upward.  Its block margin is the worst other wire u under address
    i, each pair scored by u's *best* blocking region (only one needs
    to block); pattern copies in other contact groups are skipped, as
    the contact group disambiguates them.  Both margin vectors are
    computed once on :mod:`repro.sim.margins` from the decoder's
    memoized pattern and dose-count matrices.
    """
    from repro.sim.margins import block_margins_batched, select_margins_batched

    decoder = HalfCaveDecoder(space, nanowires, scheme, sigma_t)
    inputs = (decoder.patterns, decoder.nu, decoder.scheme, sigma_t, k_sigma)
    select = select_margins_batched(*inputs)
    block = block_margins_batched(*inputs)
    return MarginReport(
        select_margin_v=float(select.min()),
        block_margin_v=float(block.min()),
        k_sigma=k_sigma,
        margin_yield=float(((select > 0) & (block > 0)).mean()),
    )
