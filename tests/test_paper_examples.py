"""End-to-end regression tests against the paper's worked Examples 1-6.

The examples use n = 3, N = 3, M = 4 with VT levels 0.1/0.3/0.5 V and
doping levels 2/4/9 x 10^18 cm^-3.  Every matrix printed in the paper is
reproduced exactly (in units of 1e18 cm^-3 via the conftest digit map).
"""

import numpy as np

from repro.codes.base import reflect_word
from repro.decoder.variability import (
    dose_count_matrix,
    sigma_norm1,
    variability_matrix,
)
from repro.fabrication.complexity import fabrication_complexity, step_complexities
from repro.fabrication.doping import DopingPlan


class TestExample1:
    """P, V and D matrices of Example 1."""

    def test_final_doping_matrix(self, paper_map, example1_pattern):
        d = paper_map.apply(example1_pattern)
        expected = np.array([[2, 4, 9, 4], [2, 9, 9, 2], [4, 2, 4, 9]])
        assert np.array_equal(d, expected)

    def test_vt_matrix(self, paper_map, example1_pattern):
        """V = [[1,3,5,3],[1,5,5,1],[3,1,3,5]] * 0.1 V."""
        levels = np.asarray(paper_map.vt_levels)
        v = levels[example1_pattern]
        expected = np.array([[1, 3, 5, 3], [1, 5, 5, 1], [3, 1, 3, 5]]) * 0.1
        assert np.allclose(v, expected)


class TestExample2:
    """Step doping matrix S of Example 2."""

    def test_step_matrix(self, paper_map, example1_pattern):
        plan = DopingPlan.from_pattern(example1_pattern, paper_map)
        expected = np.array([[0, -5, 0, 2], [-2, 7, 5, -7], [4, 2, 4, 9]])
        assert np.allclose(plan.steps, expected)

    def test_proposition2_property(self, paper_map, example1_pattern):
        plan = DopingPlan.from_pattern(example1_pattern, paper_map)
        assert plan.verify()


class TestExample3:
    """Fabrication complexity: phi = (2, 4, 3), Phi = 9."""

    def test_phi_values(self, paper_map, example1_pattern):
        plan = DopingPlan.from_pattern(example1_pattern, paper_map)
        assert step_complexities(plan.steps).tolist() == [2, 4, 3]
        assert fabrication_complexity(plan.steps) == 9


class TestExample4:
    """Variability matrix Sigma = [[2,3,2,3],[2,2,2,2],[1,1,1,1]] sigma_T^2."""

    def test_sigma_matrix(self, paper_map, example1_pattern):
        plan = DopingPlan.from_pattern(example1_pattern, paper_map)
        sigma = variability_matrix(dose_count_matrix(plan.steps), sigma_t=1.0)
        expected = np.array([[2, 3, 2, 3], [2, 2, 2, 2], [1, 1, 1, 1]])
        assert np.array_equal(sigma, expected)

    def test_sigma_norm_is_22(self, paper_map, example1_pattern):
        plan = DopingPlan.from_pattern(example1_pattern, paper_map)
        sigma = variability_matrix(dose_count_matrix(plan.steps), sigma_t=1.0)
        assert sigma_norm1(sigma) == 22.0


class TestExample5:
    """Gray-ordered pattern: S and Sigma as printed, ||Sigma||_1 = 18."""

    def test_step_matrix(self, paper_map, example5_pattern):
        plan = DopingPlan.from_pattern(example5_pattern, paper_map)
        expected = np.array([[0, -5, 0, 2], [-2, 0, 5, 0], [4, 9, 4, 2]])
        assert np.allclose(plan.steps, expected)

    def test_sigma_matrix(self, paper_map, example5_pattern):
        plan = DopingPlan.from_pattern(example5_pattern, paper_map)
        sigma = variability_matrix(dose_count_matrix(plan.steps), sigma_t=1.0)
        expected = np.array([[2, 2, 2, 2], [2, 1, 2, 1], [1, 1, 1, 1]])
        assert np.array_equal(sigma, expected)
        assert sigma_norm1(sigma) == 18.0

    def test_reflected_words(self, example5_pattern):
        """Example 5's rows are reflected forms of the ternary words 01,02,12."""
        rows = [reflect_word(w, 3) for w in [(0, 1), (0, 2), (1, 2)]]
        assert np.array_equal(np.array(rows), example5_pattern)


class TestExample6:
    """Gray code reduces Phi from 9 to 7 with phi = (2, 2, 3)."""

    def test_phi_values(self, paper_map, example5_pattern):
        plan = DopingPlan.from_pattern(example5_pattern, paper_map)
        assert step_complexities(plan.steps).tolist() == [2, 2, 3]
        assert fabrication_complexity(plan.steps) == 7
