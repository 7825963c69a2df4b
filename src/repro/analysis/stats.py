"""Headline comparisons of Sec. 6.2 / abstract, as measurable quantities.

Every textual claim of the paper's evaluation gets one function
returning the measured figure on our platform, plus
:func:`headline_summary` bundling them with the paper's reported values
for the paper-vs-measured table of ``repro headline``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.figures import (
    FIG5_NANOWIRES,
    FIG6_NANOWIRES,
    fig5_fabrication_complexity,
    fig7_crossbar_yield,
    fig8_bit_area,
)
from repro.codes.registry import make_code
from repro.crossbar.spec import CrossbarSpec
from repro.decoder.variability import average_variability, code_variability


@dataclass(frozen=True)
class Claim:
    """One paper claim with its measured counterpart."""

    key: str
    description: str
    paper: str
    measured: str
    measured_value: float


def gray_complexity_reduction(nanowires: int = FIG5_NANOWIRES) -> float:
    """Fractional Phi reduction of GC vs TC for higher-valence logic.

    The paper: "For ternary and quaternary logic, the Gray code performs
    better than the tree code (17%)".  Averaged over both valences.
    """
    data = fig5_fabrication_complexity(nanowires)
    reductions = []
    for label in ("Ternary", "Quaternary"):
        tc, gc = data[label]["TC"], data[label]["GC"]
        reductions.append((tc - gc) / tc)
    return sum(reductions) / len(reductions)


def bgc_variability_reduction(
    nanowires: int = FIG6_NANOWIRES,
    lengths: tuple[int, ...] = (8, 10),
    n: int = 2,
) -> float:
    """Average-variability reduction of BGC vs TC (paper: 18%).

    ``||Sigma||_1 / (N * M)`` compared at the Fig. 6 lengths and
    averaged.
    """
    reductions = []
    for length in lengths:
        tc = average_variability(
        code_variability(make_code("TC", n, length), nanowires)
    )
        bgc = average_variability(
            code_variability(make_code("BGC", n, length), nanowires)
        )
        reductions.append((tc - bgc) / tc)
    return sum(reductions) / len(reductions)


def _yield_lookup(spec: CrossbarSpec | None) -> dict[str, dict[int, float]]:
    data = fig7_crossbar_yield(spec)
    return {fam: dict(points) for fam, points in data.items()}


def tc_yield_gain(spec: CrossbarSpec | None = None) -> float:
    """Absolute yield gain of TC when M goes 6 -> 10 (paper: ~40 points)."""
    y = _yield_lookup(spec)["TC"]
    return y[10] - y[6]


def ahc_yield_gain(spec: CrossbarSpec | None = None) -> float:
    """Absolute yield gain of AHC when M goes 4 -> 8 (paper: ~40 points)."""
    y = _yield_lookup(spec)["AHC"]
    return y[8] - y[4]


def bgc_vs_tc_yield(spec: CrossbarSpec | None = None, length: int = 8) -> float:
    """Relative yield advantage of BGC over TC at fixed M (paper: 42%)."""
    y = _yield_lookup(spec)
    return y["BGC"][length] / y["TC"][length] - 1.0


def ahc_vs_hc_yield(spec: CrossbarSpec | None = None, length: int = 8) -> float:
    """Relative yield advantage of AHC over HC at fixed M (paper: 19%)."""
    y = _yield_lookup(spec)
    return y["AHC"][length] / y["HC"][length] - 1.0


def _area_lookup(spec: CrossbarSpec | None) -> dict[str, dict[int, float]]:
    data = fig8_bit_area(spec)
    return {fam: dict(points) for fam, points in data.items()}


def tc_area_saving(spec: CrossbarSpec | None = None) -> float:
    """Fractional bit-area saving of TC at M=10 vs M=6 (paper: 51%)."""
    a = _area_lookup(spec)["TC"]
    return 1.0 - a[10] / a[6]


def bgc_vs_tc_area(spec: CrossbarSpec | None = None, length: int = 8) -> float:
    """Fractional density advantage of BGC over TC at fixed M (paper: 30%)."""
    a = _area_lookup(spec)
    return 1.0 - a["BGC"][length] / a["TC"][length]


def ahc_vs_hc_area(spec: CrossbarSpec | None = None, length: int = 6) -> float:
    """Fractional bit-area saving of AHC vs HC at M=6 (paper: 13%)."""
    a = _area_lookup(spec)
    return 1.0 - a["AHC"][length] / a["HC"][length]


def min_bit_area(spec: CrossbarSpec | None = None) -> tuple[str, int, float]:
    """(family, length, bit area) of the overall densest design point.

    Paper: 169 nm^2 for BGC, followed by 175 nm^2 for AHC.
    """
    best: tuple[str, int, float] | None = None
    for family, points in fig8_bit_area(spec).items():
        for length, area in points:
            if best is None or area < best[2]:
                best = (family, length, area)
    assert best is not None
    return best


def headline_summary(spec: CrossbarSpec | None = None) -> list[Claim]:
    """All headline claims with paper and measured values."""
    spec = spec or CrossbarSpec()
    fam, length, area = min_bit_area(spec)
    return [
        Claim(
            "gray_complexity",
            "Phi reduction, GC vs TC (ternary/quaternary)",
            "17%",
            f"{100 * gray_complexity_reduction():.1f}%",
            gray_complexity_reduction(),
        ),
        Claim(
            "bgc_variability",
            "average variability reduction, BGC vs TC",
            "18%",
            f"{100 * bgc_variability_reduction():.1f}%",
            bgc_variability_reduction(),
        ),
        Claim(
            "tc_yield_gain",
            "TC yield gain, M 6 -> 10",
            "~40 points",
            f"{100 * tc_yield_gain(spec):.1f} points",
            tc_yield_gain(spec),
        ),
        Claim(
            "ahc_yield_gain",
            "AHC yield gain, M 4 -> 8",
            "~40 points",
            f"{100 * ahc_yield_gain(spec):.1f} points",
            ahc_yield_gain(spec),
        ),
        Claim(
            "bgc_vs_tc_yield",
            "BGC vs TC yield at M = 8",
            "+42%",
            f"{100 * bgc_vs_tc_yield(spec):+.1f}%",
            bgc_vs_tc_yield(spec),
        ),
        Claim(
            "ahc_vs_hc_yield",
            "AHC vs HC yield at M = 8",
            "+19%",
            f"{100 * ahc_vs_hc_yield(spec):+.1f}%",
            ahc_vs_hc_yield(spec),
        ),
        Claim(
            "tc_area_saving",
            "TC bit-area saving, M 10 vs 6",
            "51%",
            f"{100 * tc_area_saving(spec):.1f}%",
            tc_area_saving(spec),
        ),
        Claim(
            "bgc_vs_tc_area",
            "BGC density advantage over TC at M = 8",
            "30%",
            f"{100 * bgc_vs_tc_area(spec):.1f}%",
            bgc_vs_tc_area(spec),
        ),
        Claim(
            "ahc_vs_hc_area",
            "AHC bit-area saving vs HC at M = 6",
            "13%",
            f"{100 * ahc_vs_hc_area(spec):.1f}%",
            ahc_vs_hc_area(spec),
        ),
        Claim(
            "min_bit_area",
            f"smallest effective bit area ({fam}, M = {length})",
            "169 nm^2 (BGC), 175 nm^2 (AHC)",
            f"{area:.0f} nm^2 ({fam})",
            area,
        ),
    ]
