"""Unit tests for repro.codes.balanced."""

import sys

import pytest

from repro.codes.balanced import BalancedGrayCode, balanced_gray_words
from repro.codes.base import CodeError
from repro.codes.metrics import (
    is_gray_sequence,
    max_digit_transitions,
)
from repro.codes.tree import counting_words


class TestBalancedGrayWords:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 2)])
    def test_is_gray_sequence(self, n, m):
        assert is_gray_sequence(balanced_gray_words(n, m))

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (2, 5), (3, 2)])
    def test_covers_whole_space(self, n, m):
        assert set(balanced_gray_words(n, m)) == set(counting_words(n, m))

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (2, 5)])
    def test_balance_beats_standard_gray(self, n, m):
        from repro.codes.gray import reflected_gray_words

        balanced = balanced_gray_words(n, m)
        standard = reflected_gray_words(n, m)
        assert max_digit_transitions(balanced) <= max_digit_transitions(standard)

    def test_length_one_is_trivial(self):
        assert balanced_gray_words(3, 1) == [(0,), (1,), (2,)]

    def test_memoised_returns_copy(self):
        a = balanced_gray_words(2, 3)
        b = balanced_gray_words(2, 3)
        assert a == b
        a[0] = (9, 9, 9)
        assert balanced_gray_words(2, 3)[0] != (9, 9, 9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(CodeError):
            balanced_gray_words(1, 2)


class TestBalancedGrayCode:
    def test_family_and_reflection(self):
        bgc = BalancedGrayCode(2, 4)
        assert bgc.family == "BGC"
        assert bgc.reflected
        assert bgc.total_length == 8

    def test_digit_balance_diagnostics(self):
        bgc = BalancedGrayCode(2, 4)
        info = bgc.digit_balance()
        assert info["max"] >= info["min"]
        assert info["spread"] == info["max"] - info["min"]
        assert len(info["per_digit"]) == 4
        assert sum(info["per_digit"]) == bgc.size - 1

    def test_near_perfect_balance_binary(self):
        # 15 transitions over 4 digits: perfect balance has spread <= 1,
        # the search may need one extra unit of slack.
        bgc = BalancedGrayCode(2, 4)
        assert bgc.digit_balance()["spread"] <= 2

    def test_uniquely_addressable(self):
        assert BalancedGrayCode(2, 3).is_uniquely_addressable()

    def test_from_total_length(self):
        bgc = BalancedGrayCode.from_total_length(2, 10)
        assert bgc.length == 5

    def test_from_total_length_rejects_odd(self):
        with pytest.raises(CodeError):
            BalancedGrayCode.from_total_length(2, 9)

    def test_variability_spread_below_tree_code(self):
        """The balancing goal: variability spread more evenly (Fig. 6)."""
        from repro.codes.tree import TreeCode
        from repro.decoder.variability import code_variability
        import numpy as np

        nanowires = 20
        bgc_sigma = code_variability(BalancedGrayCode(2, 4), nanowires)
        tc_sigma = code_variability(TreeCode(2, 4), nanowires)
        # compare the dispersion of per-region variability
        assert np.std(np.sqrt(bgc_sigma)) < np.std(np.sqrt(tc_sigma))


class TestDeepSearch:
    @pytest.mark.parametrize("require_cycle", [False, True])
    @pytest.mark.parametrize("order", ["balance", "warnsdorff"])
    def test_space_beyond_recursion_limit(self, order, require_cycle):
        from repro.codes.balanced import _balanced_path_search

        n, m = 2, 11
        size = n**m
        assert size > sys.getrecursionlimit()
        cap = -(-(size - 1) // m)
        path = _balanced_path_search(
            n, m, cap, (0,) * m, 2 * size, require_cycle, order
        )
        if path is not None:
            assert sorted(path) == counting_words(n, m)
            assert is_gray_sequence(path)
