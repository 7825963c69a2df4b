"""Unit tests for repro.codes.arranged."""

import sys

import pytest

from repro.codes.arranged import (
    ArrangedHotCode,
    arranged_hot_words,
    minimum_possible_step,
)
from repro.codes.base import CodeError
from repro.codes.hot import hot_words
from repro.codes.metrics import is_distance_sequence, step_transitions


class TestArrangedHotWords:
    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
    def test_distance_two_throughout(self, n, k):
        words = arranged_hot_words(n, k)
        if len(words) > 1:
            assert is_distance_sequence(words, 2)

    @pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
    def test_same_set_as_hot_code(self, n, k):
        assert set(arranged_hot_words(n, k)) == set(hot_words(n, k))

    def test_memoised_returns_copy(self):
        a = arranged_hot_words(2, 2)
        a[0] = (9,) * 4
        assert arranged_hot_words(2, 2)[0] != (9,) * 4


class TestMinimumPossibleStep:
    def test_hot_codes_have_minimum_distance_two(self):
        assert minimum_possible_step(hot_words(2, 2)) == 2
        assert minimum_possible_step(hot_words(3, 1)) == 2

    def test_tree_codes_have_minimum_distance_one(self):
        from repro.codes.tree import counting_words

        assert minimum_possible_step(counting_words(2, 3)) == 1

    def test_rejects_single_word(self):
        with pytest.raises(CodeError):
            minimum_possible_step([(0, 1)])


class TestArrangedHotCode:
    def test_family_and_reflection(self):
        ahc = ArrangedHotCode(2, 3)
        assert ahc.family == "AHC"
        assert not ahc.reflected
        assert ahc.total_length == 6

    def test_transitions_minimised(self):
        """Every step costs exactly 2 transitions — the Sec. 5.2 minimum."""
        ahc = ArrangedHotCode(2, 3)
        assert set(step_transitions(list(ahc.words))) == {2}

    def test_fewer_total_transitions_than_lexicographic(self):
        from repro.codes.hot import HotCode
        from repro.codes.metrics import total_transitions

        ahc = ArrangedHotCode(2, 4)
        hc = HotCode(2, 4)
        assert total_transitions(list(ahc.words)) < total_transitions(list(hc.words))

    def test_uniquely_addressable(self):
        assert ArrangedHotCode(2, 2).is_uniquely_addressable()

    def test_k_property(self):
        assert ArrangedHotCode(2, 4).k == 4

    def test_from_total_length(self):
        ahc = ArrangedHotCode.from_total_length(2, 6)
        assert ahc.k == 3

    def test_from_total_length_requires_divisibility(self):
        with pytest.raises(CodeError):
            ArrangedHotCode.from_total_length(2, 5)

    def test_digit_balance_diagnostics(self):
        info = ArrangedHotCode(2, 3).digit_balance()
        assert sum(info["per_digit"]) == 2 * (ArrangedHotCode(2, 3).size - 1)


class TestDeepSearch:
    def test_space_beyond_recursion_limit(self):
        from repro.codes.arranged import _arranged_path_search

        words = hot_words(3, 3)
        assert len(words) > sys.getrecursionlimit()
        path = _arranged_path_search(words, words[0], node_budget=2 * len(words))
        if path is not None:
            assert sorted(path) == sorted(words)
            assert is_distance_sequence(path, 2)
