"""Unit tests for repro.codes.tree."""

import pytest

from repro.codes.base import CodeError
from repro.codes.tree import TreeCode, counting_words, int_to_word, word_to_int


class TestIntWordConversion:
    def test_int_to_word_binary(self):
        assert int_to_word(5, 2, 4) == (0, 1, 0, 1)

    def test_int_to_word_ternary(self):
        assert int_to_word(7, 3, 3) == (0, 2, 1)

    def test_word_to_int_roundtrip(self):
        for n in (2, 3, 4):
            for v in range(n**3):
                assert word_to_int(int_to_word(v, n, 3), n) == v

    def test_int_to_word_rejects_overflow(self):
        with pytest.raises(CodeError):
            int_to_word(8, 2, 3)

    def test_int_to_word_rejects_negative(self):
        with pytest.raises(CodeError):
            int_to_word(-1, 2, 3)

    def test_word_to_int_rejects_bad_digit(self):
        with pytest.raises(CodeError):
            word_to_int((0, 3), 3)


class TestCountingWords:
    def test_counting_order(self):
        assert counting_words(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_size(self):
        assert len(counting_words(3, 3)) == 27

    def test_rejects_zero_length(self):
        with pytest.raises(CodeError):
            counting_words(2, 0)


class TestTreeCode:
    def test_space_is_complete(self):
        tc = TreeCode(3, 2)
        assert tc.size == 9
        assert len(set(tc.words)) == 9

    def test_is_reflected_family(self):
        tc = TreeCode(2, 3)
        assert tc.reflected
        assert tc.total_length == 6
        assert tc.family == "TC"

    def test_pattern_words_have_constant_digit_sum(self):
        tc = TreeCode(3, 2)
        sums = {sum(tc.pattern_word(i)) for i in range(tc.size)}
        assert sums == {2 * (3 - 1)}

    def test_uniquely_addressable_after_reflection(self):
        assert TreeCode(2, 3).is_uniquely_addressable()
        assert TreeCode(3, 2).is_uniquely_addressable()

    def test_from_total_length(self):
        tc = TreeCode.from_total_length(2, 8)
        assert tc.length == 4
        assert tc.total_length == 8

    def test_from_total_length_rejects_odd(self):
        with pytest.raises(CodeError):
            TreeCode.from_total_length(2, 7)

    def test_shortest_covering(self):
        assert TreeCode.shortest_covering(2, 10).length == 4   # 2^4 = 16 >= 10
        assert TreeCode.shortest_covering(3, 10).length == 3   # 3^3 = 27 >= 10
        assert TreeCode.shortest_covering(4, 10).length == 2   # 4^2 = 16 >= 10

    def test_shortest_covering_exact_fit(self):
        assert TreeCode.shortest_covering(2, 8).length == 3
