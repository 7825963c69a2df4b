"""Design objectives as direct cost functions (paper Prop. 3 and Sec. 6).

Proposition 3 defines two fabrication-time objectives — the technology
complexity ``Phi`` and the reliability cost ``||Sigma||_1`` — and the
evaluation adds two circuit-level ones: crossbar yield (to maximise) and
effective bit area (to minimise).  Each is computed here straight from
the decoder / yield / area models with one "lower is better"
signature; the optimizer scores the same objectives through pipeline
columns (``repro.core.optimizer.OBJECTIVES``) and must agree exactly.
"""

from __future__ import annotations

from repro.codes.base import CodeSpace
from repro.crossbar.area import effective_bit_area
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import crossbar_yield, decoder_for


def complexity_cost(spec: CrossbarSpec, space: CodeSpace) -> float:
    """Phi — total extra lithography/doping steps (Def. 4)."""
    return float(decoder_for(spec, space).fabrication_complexity)


def variability_cost(spec: CrossbarSpec, space: CodeSpace) -> float:
    """``||Sigma||_1`` — the decoder reliability cost (Def. 5)."""
    return decoder_for(spec, space).sigma_norm


def yield_cost(spec: CrossbarSpec, space: CodeSpace) -> float:
    """Negative cave yield (so that lower is better)."""
    return -crossbar_yield(spec, space).cave_yield


def bit_area_cost(spec: CrossbarSpec, space: CodeSpace) -> float:
    """Effective bit area [nm^2] (Fig. 8's metric)."""
    return effective_bit_area(spec, space).effective_bit_area_nm2


#: Reference cost of each named objective.
COSTS = {
    "complexity": complexity_cost,
    "variability": variability_cost,
    "yield": yield_cost,
    "bit_area": bit_area_cost,
}
