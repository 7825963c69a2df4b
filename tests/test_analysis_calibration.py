"""Unit tests for repro.analysis.calibration."""

import pytest

from repro.analysis.calibration import (
    PAPER_TARGETS,
    default_point,
    evaluate_point,
    grid_search,
    measure_targets,
    score,
)
from repro.crossbar.spec import CrossbarSpec


class TestMeasureTargets:
    def test_all_targets_measured(self, spec):
        measured = measure_targets(spec)
        assert set(measured) == set(PAPER_TARGETS)

    def test_values_plausible(self, spec):
        measured = measure_targets(spec)
        assert 0 < measured["tc_yield_gain"] < 1
        assert 100 < measured["min_bit_area"] < 300


class TestScore:
    def test_zero_at_exact_targets(self):
        assert score(dict(PAPER_TARGETS)) == 0.0

    def test_positive_otherwise(self, spec):
        assert score(measure_targets(spec)) > 0.0

    def test_scales_with_deviation(self):
        off_by_10 = {k: v * 1.1 for k, v in PAPER_TARGETS.items()}
        off_by_50 = {k: v * 1.5 for k, v in PAPER_TARGETS.items()}
        assert score(off_by_50) > score(off_by_10)


class TestEvaluatePoint:
    def test_point_round_trips_spec(self):
        point = evaluate_point(0.9, 1.25, 2.5)
        spec = point.spec()
        assert spec.window_margin == 0.9
        assert spec.rules.contact_gap_factor == 1.25
        assert spec.rules.alignment_tolerance_nm == 2.5

    def test_default_point_matches_default_spec(self, spec):
        point = default_point()
        assert point.measured == measure_targets(CrossbarSpec())
        assert point.error == pytest.approx(score(measure_targets(spec)))


class TestGridSearch:
    def test_sorted_best_first(self):
        points = grid_search(
            margins=(0.9, 1.0), gaps=(1.0,), tolerances=(5.0,)
        )
        assert len(points) == 2
        assert points[0].error <= points[1].error

    def test_defaults_are_competitive(self):
        """The calibration's conclusion: no grid point improves on the
        defaults by more than a small factor."""
        points = grid_search(
            margins=(0.9, 1.0), gaps=(0.75, 1.0), tolerances=(5.0,)
        )
        best = points[0].error
        default = default_point().error
        assert default <= 1.25 * best
