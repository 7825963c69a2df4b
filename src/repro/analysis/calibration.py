"""Calibration of the two free model parameters against the paper.

The paper does not print the numeric addressability window of [2] nor
the exact contact-boundary geometry; DESIGN.md items 2-3 describe the
substituted models, each with one free parameter (window margin; dead
gap, plus an alignment tolerance).  This module scores any candidate
setting against the paper's quantitative claims and exposes the grid
search whose outcome — keep the physical defaults — is recorded in
EXPERIMENTS.md.

The score is the mean relative error across the six claims that depend
on the platform calibration (the purely structural claims, such as the
Fig. 5 complexity ratios, are calibration-independent by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.stats import (
    ahc_vs_hc_area,
    ahc_vs_hc_yield,
    bgc_vs_tc_yield,
    min_bit_area,
    tc_area_saving,
    tc_yield_gain,
)
from repro.crossbar.spec import CrossbarSpec, spec_with

#: The paper's calibration-sensitive targets.
PAPER_TARGETS: dict[str, float] = {
    "tc_yield_gain": 0.40,       # "the yield improves by 40%" (TC, 6 -> 10)
    "bgc_vs_tc_yield": 0.42,     # "the balanced Gray code yields 42% more"
    "ahc_vs_hc_yield": 0.19,     # "the arranged hot code 19% better"
    "tc_area_saving": 0.51,      # "an area saving by 51%"
    "ahc_vs_hc_area": 0.13,      # "13% less bit area for M = 6"
    "min_bit_area": 169.0,       # "the smallest bit area is 169 nm^2"
}


@dataclass(frozen=True)
class CalibrationPoint:
    """One scored calibration candidate."""

    window_margin: float
    contact_gap_factor: float
    alignment_tolerance_nm: float
    measured: dict[str, float]
    error: float

    def spec(self) -> CrossbarSpec:
        """The platform spec this point describes."""
        return spec_with(
            window_margin=self.window_margin,
            contact_gap_factor=self.contact_gap_factor,
            alignment_tolerance_nm=self.alignment_tolerance_nm,
        )


def measure_targets(spec: CrossbarSpec) -> dict[str, float]:
    """Measure every calibration-sensitive claim on ``spec``."""
    return {
        "tc_yield_gain": tc_yield_gain(spec),
        "bgc_vs_tc_yield": bgc_vs_tc_yield(spec),
        "ahc_vs_hc_yield": ahc_vs_hc_yield(spec),
        "tc_area_saving": tc_area_saving(spec),
        "ahc_vs_hc_area": ahc_vs_hc_area(spec),
        "min_bit_area": min_bit_area(spec)[2],
    }


def score(measured: dict[str, float]) -> float:
    """Mean relative error against the paper targets."""
    errors = [
        abs(measured[key] - target) / abs(target)
        for key, target in PAPER_TARGETS.items()
    ]
    return sum(errors) / len(errors)


def evaluate_point(
    window_margin: float,
    contact_gap_factor: float,
    alignment_tolerance_nm: float,
) -> CalibrationPoint:
    """Score one calibration candidate."""
    spec = spec_with(
        window_margin=window_margin,
        contact_gap_factor=contact_gap_factor,
        alignment_tolerance_nm=alignment_tolerance_nm,
    )
    measured = measure_targets(spec)
    return CalibrationPoint(
        window_margin=window_margin,
        contact_gap_factor=contact_gap_factor,
        alignment_tolerance_nm=alignment_tolerance_nm,
        measured=measured,
        error=score(measured),
    )


def grid_search(
    margins: Sequence[float] = (0.8, 0.9, 1.0),
    gaps: Sequence[float] = (0.75, 1.0, 1.25),
    tolerances: Sequence[float] = (2.5, 5.0, 7.5),
) -> list[CalibrationPoint]:
    """Score a full calibration grid, best first.

    The default 27-point grid brackets the shipped defaults; the
    EXPERIMENTS.md record used a denser 72-point version of the same
    search.
    """
    points = [
        evaluate_point(margin, gap, tol)
        for margin in margins
        for gap in gaps
        for tol in tolerances
    ]
    return sorted(points, key=lambda p: p.error)


def default_point() -> CalibrationPoint:
    """The shipped defaults, scored."""
    return evaluate_point(1.0, 1.0, 5.0)
