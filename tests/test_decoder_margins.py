"""Unit tests for repro.decoder.margins — sense-margin analysis."""

import numpy as np
import pytest

from repro.codes import make_code
from repro.decoder.margins import margin_report
from repro.device.threshold import LevelScheme
from repro.sim.margins import block_margins_batched, select_margins_batched
from tests.oracles.margins import applied_voltages


@pytest.fixture
def scheme():
    return LevelScheme(2)


class TestAppliedVoltages:
    def test_half_spacing_above_level(self, scheme):
        va = applied_voltages(np.array([0, 1]), scheme)
        assert va == pytest.approx([0.25 + 0.25, 0.75 + 0.25])

    def test_selects_addressed_level_not_next(self):
        scheme3 = LevelScheme(3)
        va = applied_voltages(np.array([1]), scheme3)
        levels = scheme3.levels
        assert levels[1] < va[0] < levels[2]


class TestSelectMargins:
    def test_zero_variability_gives_half_spacing(self, scheme):
        patterns = np.array([[0, 1], [1, 0]])
        margins = select_margins_batched(patterns, np.zeros((2, 2)), scheme)
        assert margins == pytest.approx([0.25, 0.25])

    def test_margins_shrink_with_variability(self, scheme):
        patterns = np.array([[0, 1]])
        nu = np.ones((1, 2))
        low = select_margins_batched(patterns, nu, scheme, k_sigma=3.0)
        high = select_margins_batched(patterns, 9 * nu, scheme, k_sigma=3.0)
        assert high[0] < low[0]

    def test_k_sigma_scaling(self, scheme):
        patterns = np.array([[0, 1]])
        nu = 4 * np.ones((1, 2))
        m1 = select_margins_batched(patterns, nu, scheme, sigma_t=0.05, k_sigma=1.0)
        m3 = select_margins_batched(patterns, nu, scheme, sigma_t=0.05, k_sigma=3.0)
        assert m1[0] - m3[0] == pytest.approx(2 * 0.05 * 2.0)


class TestBlockMargins:
    def test_distinct_patterns_have_finite_margin(self, scheme):
        patterns = np.array([[0, 1], [1, 0]])
        margins = block_margins_batched(patterns, np.zeros((2, 2)), scheme)
        assert np.isfinite(margins).all()

    def test_identical_copies_skipped(self, scheme):
        """Copies in other contact groups do not count as conflicts."""
        patterns = np.array([[0, 1], [0, 1]])
        margins = block_margins_batched(patterns, np.zeros((2, 2)), scheme)
        assert np.isinf(margins).all()

    def test_zero_variability_margin_value(self, scheme):
        """With VA = level + spacing/2, the blocking region sits
        spacing/2 above the applied voltage."""
        patterns = np.array([[0, 1], [1, 0]])
        margins = block_margins_batched(patterns, np.zeros((2, 2)), scheme)
        assert margins == pytest.approx([0.25, 0.25])


class TestMarginReport:
    def test_report_fields(self):
        report = margin_report(make_code("BGC", 2, 8), 20)
        assert report.k_sigma == 3.0
        assert report.worst_margin_v == min(
            report.select_margin_v, report.block_margin_v
        )

    def test_bgc_has_larger_margin_than_tc(self):
        """Lower variability -> larger k-sigma margins (the Fig. 7
        mechanism seen through the margin lens)."""
        tc = margin_report(make_code("TC", 2, 8), 20)
        bgc = margin_report(make_code("BGC", 2, 8), 20)
        assert bgc.worst_margin_v > tc.worst_margin_v

    def test_margin_degrades_with_k(self):
        code = make_code("GC", 2, 8)
        k1 = margin_report(code, 20, k_sigma=1.0)
        k4 = margin_report(code, 20, k_sigma=4.0)
        assert k4.worst_margin_v < k1.worst_margin_v


class TestMarginYield:
    def test_bounds(self):
        y = margin_report(make_code("BGC", 2, 8), 20).margin_yield
        assert 0.0 <= y <= 1.0

    def test_more_conservative_at_high_k(self):
        code = make_code("TC", 2, 10)
        loose = margin_report(code, 20, k_sigma=1.0).margin_yield
        tight = margin_report(code, 20, k_sigma=4.0).margin_yield
        assert tight <= loose

    def test_optimised_code_not_worse(self):
        tc = margin_report(make_code("TC", 2, 8), 20, k_sigma=2.0).margin_yield
        bgc = margin_report(make_code("BGC", 2, 8), 20, k_sigma=2.0).margin_yield
        assert bgc >= tc
