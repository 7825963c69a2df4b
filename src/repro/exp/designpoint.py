"""The hashable unit of work of the design-space evaluation pipeline.

Every sweep of the paper's evaluation — Figs. 5-8, the ablation benches
and the design optimizer — walks a grid of *design points*: one code
choice (family, valence, total length) on one perturbation of the
platform spec.  :class:`DesignPoint` pins that tuple down as a frozen,
hashable value object so points can be deduplicated, cached against,
shipped to worker processes, and tagged onto result rows uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.codes.base import CodeError, CodeSpace
from repro.codes.registry import ALL_FAMILIES, design_error, make_code
from repro.crossbar.spec import CrossbarSpec, validate_override_keys
from repro.exp.cache import cached_spec


@dataclass(frozen=True, order=True)
class DesignPoint:
    """One point of the design space: a code on a (possibly perturbed) spec.

    Parameters
    ----------
    family:
        Code family name, normalised to upper case by :meth:`make`.
    total_length:
        Total on-nanowire pattern length M.
    n:
        Logic valence.
    overrides:
        Sorted ``(name, value)`` pairs of spec parameters this point
        perturbs (see :data:`repro.crossbar.spec.SPEC_OVERRIDE_KEYS`);
        kept as a tuple so the point stays hashable.
    """

    family: str
    total_length: int
    n: int = 2
    overrides: tuple[tuple[str, float], ...] = field(default=())

    @classmethod
    def make(
        cls,
        family: str,
        total_length: int,
        n: int = 2,
        **overrides: float,
    ) -> "DesignPoint":
        """Normalised constructor: upper-cases the family, sorts overrides."""
        key = family.strip().upper()
        validate_override_keys(overrides)
        return cls(
            family=key,
            total_length=int(total_length),
            n=int(n),
            overrides=tuple(sorted(overrides.items())),
        )

    @property
    def label(self) -> str:
        """Short display label such as ``BGC/10``."""
        return f"{self.family}/{self.total_length}"

    def code(self) -> CodeSpace:
        """The point's code space (memoized via :func:`make_code`)."""
        return make_code(self.family, self.n, self.total_length)

    def resolved_spec(self, base: CrossbarSpec | None = None) -> CrossbarSpec:
        """The platform spec with this point's overrides applied."""
        return cached_spec(base or CrossbarSpec(), self.overrides)

    def axes(self) -> dict[str, object]:
        """The identifying columns this point contributes to a result row."""
        out: dict[str, object] = {
            "family": self.family,
            "n": self.n,
            "total_length": self.total_length,
        }
        out.update(self.overrides)
        return out


def design_grid(
    families: Sequence[str] = ALL_FAMILIES,
    lengths: Sequence[int] = (4, 6, 8, 10),
    n: int = 2,
    axes: Mapping[str, Iterable[float]] | None = None,
) -> list[DesignPoint]:
    """Full-factorial grid of admissible design points.

    The cross product of ``families x lengths x axes`` values, with
    points a family cannot realise (odd lengths for reflected codes,
    lengths not divisible by n for hot codes) silently skipped.
    Admissibility is :func:`repro.codes.registry.design_error`, decided
    without building a code: a point whose builder search fails stays
    in the grid and fails with :class:`CodeError` when evaluated.  ``axes``
    maps spec-override names to value sequences, e.g.
    ``{"sigma_t": (0.03, 0.05)}``.
    """
    unknown = sorted({f.strip().upper() for f in families} - set(ALL_FAMILIES))
    if unknown:
        raise CodeError(
            f"unknown code family(ies) {unknown}; expected a subset of "
            f"{list(ALL_FAMILIES)}"
        )
    combos: list[dict[str, float]] = [{}]
    for name, values in (axes or {}).items():
        combos = [{**combo, name: value} for combo in combos for value in values]
    points: list[DesignPoint] = []
    for family in families:
        for length in lengths:
            if design_error(family, n, length) is not None:
                continue
            for combo in combos:
                points.append(DesignPoint.make(family, length, n, **combo))
    return points
