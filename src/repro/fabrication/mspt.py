"""Multi-Spacer Patterning Technique (MSPT) process model (paper Sec. 3.1).

The MSPT defines nanowires as poly-Si spacers: a sacrificial layer bounds
a "cave"; iterating conformal deposition (poly-Si, then SiO2) and
anisotropic etching leaves one insulated poly-Si spacer per iteration on
*each* side wall of the cave (Fig. 2).  The structure is symmetric about
the cave axis, which is why the decoder analysis works on *half caves*
(Sec. 3.3): uniquely addressing one half addresses the mirrored half too.

The nanowire pitch equals the deposited poly-Si plus SiO2 thickness and
is independent of the lithography resolution — the paper demonstrates a
few tens of nm pitch from 0.8 um lithography.  This module reproduces
the *logical* process (geometry and step accounting); the SEM-validated
physics (Fig. 3) is hardware and out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabrication.lithography import LithographyRules


class ProcessError(ValueError):
    """Raised when a process recipe cannot produce the requested array."""


@dataclass(frozen=True)
class CaveGeometry:
    """Cross-section geometry of one MSPT cave.

    Parameters
    ----------
    width_nm:
        Open cave width between the sacrificial side walls [nm].
    height_nm:
        Spacer height [nm]; the paper's arrays are ~300 nm tall.  Height
        does not influence the pitch and can be planarised away.
    """

    width_nm: float
    height_nm: float = 300.0

    def __post_init__(self) -> None:
        if self.width_nm <= 0 or self.height_nm <= 0:
            raise ProcessError("cave dimensions must be positive")


@dataclass(frozen=True)
class SpacerRecipe:
    """Deposition thicknesses of one poly-Si / SiO2 spacer iteration.

    The nanowire pitch is the sum of both thicknesses (paper: "The
    nanowire pitch exclusively depends on the thickness of deposited
    poly-Si and on the etch, but not on the lithography resolution").
    """

    poly_thickness_nm: float = 6.0
    oxide_thickness_nm: float = 4.0

    def __post_init__(self) -> None:
        if self.poly_thickness_nm <= 0 or self.oxide_thickness_nm <= 0:
            raise ProcessError("deposition thicknesses must be positive")

    @property
    def pitch_nm(self) -> float:
        """Resulting nanowire pitch [nm]."""
        return self.poly_thickness_nm + self.oxide_thickness_nm


@dataclass(frozen=True)
class Spacer:
    """One fabricated poly-Si nanowire within a cave cross-section.

    ``index`` counts definition order within the half cave (0 = first
    defined, nearest the cave wall); ``side`` is ``"left"`` or
    ``"right"`` of the symmetry axis.
    """

    index: int
    side: str
    left_nm: float
    width_nm: float

    @property
    def centre_nm(self) -> float:
        """Centre coordinate of the spacer within the cave [nm]."""
        return self.left_nm + self.width_nm / 2.0


class MSPTArray:
    """The result of running the spacer loop in one cave."""

    def __init__(
        self, cave: CaveGeometry, recipe: SpacerRecipe, spacers: list[Spacer]
    ) -> None:
        self.cave = cave
        self.recipe = recipe
        self.spacers = list(spacers)

    @property
    def half_cave_count(self) -> int:
        """Nanowires per half cave (the decoder's N)."""
        return sum(1 for s in self.spacers if s.side == "left")

    @property
    def pitch_nm(self) -> float:
        """Nanowire pitch [nm]."""
        return self.recipe.pitch_nm

    def half_cave(self, side: str = "left") -> list[Spacer]:
        """Spacers of one half cave in definition order."""
        if side not in ("left", "right"):
            raise ProcessError(f"side must be 'left' or 'right', got {side!r}")
        return sorted(
            (s for s in self.spacers if s.side == side), key=lambda s: s.index
        )

    def is_symmetric(self, tol_nm: float = 1e-9) -> bool:
        """Check mirror symmetry about the cave axis (paper Sec. 3.1)."""
        axis = self.cave.width_nm / 2.0
        left = self.half_cave("left")
        right = self.half_cave("right")
        if len(left) != len(right):
            return False
        return all(
            abs((axis - l.centre_nm) - (r.centre_nm - axis)) <= tol_nm
            for l, r in zip(left, right)
        )


class MSPTProcess:
    """Runs the spacer-definition loop of Fig. 2 for one cave.

    Parameters
    ----------
    recipe:
        Deposition thicknesses per iteration.
    rules:
        Lithography rules (used for the cave definition itself, which is
        a lithographic step).
    """

    def __init__(
        self,
        recipe: SpacerRecipe | None = None,
        rules: LithographyRules | None = None,
    ) -> None:
        self.recipe = recipe or SpacerRecipe()
        self.rules = rules or LithographyRules()

    def max_spacers_per_half_cave(self, cave: CaveGeometry) -> int:
        """How many spacer iterations fit before the cave closes up."""
        return int((cave.width_nm / 2.0) // self.recipe.pitch_nm)

    def cave_for(self, nanowires_per_half_cave: int) -> CaveGeometry:
        """Smallest cave accommodating ``nanowires_per_half_cave`` wires."""
        if nanowires_per_half_cave < 1:
            raise ProcessError("need at least one nanowire per half cave")
        width = 2.0 * nanowires_per_half_cave * self.recipe.pitch_nm
        return CaveGeometry(width_nm=width)

    def run(self, cave: CaveGeometry, iterations: int) -> MSPTArray:
        """Execute ``iterations`` spacer-definition loops in ``cave``.

        Each iteration deposits poly-Si conformally, etches it
        anisotropically into one spacer per side wall, then does the same
        with SiO2 to insulate it (Fig. 2, steps 2-4).
        """
        if iterations < 1:
            raise ProcessError(f"need at least one iteration, got {iterations}")
        capacity = self.max_spacers_per_half_cave(cave)
        if iterations > capacity:
            raise ProcessError(
                f"{iterations} iterations exceed the cave capacity of "
                f"{capacity} spacers per half cave"
            )
        spacers: list[Spacer] = []
        pitch = self.recipe.pitch_nm
        poly = self.recipe.poly_thickness_nm
        for i in range(iterations):
            offset = i * pitch
            spacers.append(Spacer(index=i, side="left", left_nm=offset, width_nm=poly))
            spacers.append(
                Spacer(
                    index=i,
                    side="right",
                    left_nm=cave.width_nm - offset - poly,
                    width_nm=poly,
                )
            )
        return MSPTArray(cave=cave, recipe=self.recipe, spacers=spacers)

    def fabricate_half_cave(self, nanowires: int) -> MSPTArray:
        """Convenience: build the smallest cave and fill it with ``nanowires``."""
        cave = self.cave_for(nanowires)
        return self.run(cave, nanowires)
