"""Design-space exploration: pick code family and length per objective.

Sec. 6.2 concludes that "the decoder design covers not only the code
type but also its length"; this module automates that choice.  The
design space is the cross product of code families and admissible
lengths; every point is scored with a named objective (Prop. 3's Phi or
``||Sigma||_1``, or the circuit-level yield / bit-area) and the best
point is returned together with the full exploration record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.registry import ALL_FAMILIES, make_code
from repro.core.design import DecoderDesign
from repro.crossbar.spec import CrossbarSpec

#: Default length sweep of the paper's evaluation (total length M).
DEFAULT_LENGTHS = (4, 6, 8, 10)

#: The named objectives: Prop. 3's fabrication costs Phi and
#: ``||Sigma||_1`` and the circuit-level cave yield and effective bit
#: area.  Each maps to the pipeline metric and result column scoring
#: it, plus the sign turning the column into a lower-is-better cost.
OBJECTIVES: dict[str, tuple[str, str, float]] = {
    "complexity": ("complexity", "phi", 1.0),
    "variability": ("complexity", "sigma_norm_V2", 1.0),
    "yield": ("yield", "cave_yield", -1.0),
    "bit_area": ("area", "effective_bit_area_nm2", 1.0),
}


@dataclass(frozen=True)
class ExplorationPoint:
    """One evaluated design point."""

    design: DecoderDesign
    cost: float

    @property
    def label(self) -> str:
        """Short display label such as ``BGC/10``."""
        return f"{self.design.space.family}/{self.design.space.total_length}"


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of a design-space exploration."""

    objective: str
    points: tuple[ExplorationPoint, ...]

    @property
    def best(self) -> ExplorationPoint:
        """Point with the lowest cost."""
        return min(self.points, key=lambda p: p.cost)

    def ranking(self) -> list[ExplorationPoint]:
        """All points sorted best-first."""
        return sorted(self.points, key=lambda p: p.cost)


def explore_designs(
    objective: str = "bit_area",
    families: tuple[str, ...] = ALL_FAMILIES,
    lengths: tuple[int, ...] = DEFAULT_LENGTHS,
    n: int = 2,
    spec: CrossbarSpec | None = None,
    jobs: int = 1,
) -> ExplorationResult:
    """Score every admissible (family, length) point with ``objective``.

    Lengths that a family cannot realise (odd lengths for reflected
    codes, lengths not divisible by n for hot codes) are skipped.  The
    admissible grid is evaluated through the design-space pipeline
    (:mod:`repro.exp`): each of the :data:`OBJECTIVES` (names are
    case-insensitive) maps onto a pipeline metric column, so scoring
    shares the memoized code/decoder construction and parallelises
    with ``jobs``.
    """
    from repro.exp.designpoint import design_grid
    from repro.exp.pipeline import run_sweep

    spec = spec or CrossbarSpec()
    key = objective.strip().lower()
    if key not in OBJECTIVES:
        raise KeyError(
            f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
        )
    metric, column, sign = OBJECTIVES[key]
    grid = design_grid(families, lengths, n)
    if not grid:
        raise ValueError(
            f"no admissible design points for families={families}, "
            f"lengths={lengths}, n={n}"
        )
    result = run_sweep(grid, metrics=(metric,), spec=spec, jobs=jobs)
    costs = result.column(column)
    points = tuple(
        ExplorationPoint(
            design=DecoderDesign(
                space=make_code(p.family, p.n, p.total_length), spec=spec
            ),
            cost=sign * float(costs[i]),
        )
        for i, p in enumerate(grid)
    )
    return ExplorationResult(objective=objective, points=points)


def optimize_design(
    objective: str = "bit_area",
    families: tuple[str, ...] = ALL_FAMILIES,
    lengths: tuple[int, ...] = DEFAULT_LENGTHS,
    n: int = 2,
    spec: CrossbarSpec | None = None,
    jobs: int = 1,
) -> DecoderDesign:
    """Best design point for ``objective`` (convenience wrapper)."""
    return explore_designs(objective, families, lengths, n, spec, jobs=jobs).best.design
