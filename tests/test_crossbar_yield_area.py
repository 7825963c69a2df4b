"""Unit tests for repro.crossbar.yield_model and repro.crossbar.area."""

import pytest

from repro.codes import make_code
from repro.crossbar.area import effective_bit_area, family_area_sweep
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import (
    crossbar_yield,
    decoder_for,
    family_yield_sweep,
)


class TestCrossbarYield:
    def test_report_fields(self, spec):
        report = crossbar_yield(spec, make_code("BGC", 2, 8))
        assert report.code_length == 8
        assert report.code_space == 16
        assert 0 < report.cave_yield <= 1
        assert report.crosspoint_yield == pytest.approx(report.cave_yield**2)
        assert report.effective_bits == pytest.approx(
            report.raw_bits * report.cave_yield**2
        )

    def test_effective_never_exceeds_raw(self, spec):
        for family, length in [("TC", 6), ("BGC", 10), ("HC", 6)]:
            report = crossbar_yield(spec, make_code(family, 2, length))
            assert report.effective_bits <= report.raw_bits

    def test_decoder_for_uses_spec_knobs(self):
        spec = CrossbarSpec(sigma_t=0.06, window_margin=0.8)
        decoder = decoder_for(spec, make_code("GC", 2, 8))
        assert decoder.sigma_t == 0.06
        assert decoder.scheme.window_margin == 0.8

    def test_family_sweep_lengths(self, spec):
        reports = family_yield_sweep(spec, "TC", (6, 8, 10))
        assert [r.code_length for r in reports] == [6, 8, 10]


class TestPaperYieldOrderings:
    """The qualitative Fig. 7 relations that must hold."""

    def test_tc_yield_increases_with_length(self, spec):
        reports = family_yield_sweep(spec, "TC", (6, 8, 10))
        ys = [r.cave_yield for r in reports]
        assert ys[0] < ys[1] < ys[2]

    def test_bgc_beats_tc_at_every_length(self, spec):
        tc = family_yield_sweep(spec, "TC", (6, 8, 10))
        bgc = family_yield_sweep(spec, "BGC", (6, 8, 10))
        for t, b in zip(tc, bgc):
            assert b.cave_yield > t.cave_yield

    def test_ahc_beats_hc_at_every_length(self, spec):
        hc = family_yield_sweep(spec, "HC", (4, 6, 8))
        ahc = family_yield_sweep(spec, "AHC", (4, 6, 8))
        for h, a in zip(hc, ahc):
            assert a.cave_yield > h.cave_yield

    def test_hot_codes_jump_at_length6(self, spec):
        """HC/AHC yield rises steeply from M=4 (Omega=6) to M=6 (Omega=20)."""
        reports = family_yield_sweep(spec, "HC", (4, 6))
        assert reports[1].cave_yield > 1.5 * reports[0].cave_yield


class TestEffectiveBitArea:
    def test_report_fields(self, spec):
        report = effective_bit_area(spec, make_code("BGC", 2, 10))
        assert report.effective_bit_area_nm2 > report.raw_bit_area_nm2
        assert report.cave_yield > 0

    def test_area_relation(self, spec):
        report = effective_bit_area(spec, make_code("BGC", 2, 10))
        assert report.effective_bit_area_nm2 == pytest.approx(
            report.raw_bit_area_nm2 / report.cave_yield**2
        )

    def test_family_sweep(self, spec):
        reports = family_area_sweep(spec, "AHC", (4, 6, 8))
        assert [r.code_length for r in reports] == [4, 6, 8]

    def test_zero_yield_design_raises(self):
        from repro.crossbar.spec import spec_with

        dead = spec_with(contact_gap_factor=50.0)
        with pytest.raises(ValueError):
            effective_bit_area(dead, make_code("HC", 2, 4))


class TestPaperAreaOrderings:
    """The qualitative Fig. 8 relations that must hold."""

    def test_tc_area_shrinks_with_length(self, spec):
        areas = [
            r.effective_bit_area_nm2
            for r in family_area_sweep(spec, "TC", (6, 8, 10))
        ]
        assert areas[0] > areas[1] > areas[2]

    def test_bgc_denser_than_gc_denser_than_tc(self, spec):
        at = {
            fam: effective_bit_area(
                spec, make_code(fam, 2, 8)
            ).effective_bit_area_nm2
            for fam in ("TC", "GC", "BGC")
        }
        assert at["BGC"] <= at["GC"] < at["TC"]

    def test_minimum_near_paper_value(self, spec):
        """Paper: smallest bit area ~169 nm^2 (BGC), AHC close at ~175."""
        bgc = effective_bit_area(spec, make_code("BGC", 2, 10))
        assert bgc.effective_bit_area_nm2 == pytest.approx(169, rel=0.15)

    def test_ahc_saves_area_vs_hc(self, spec):
        hc = effective_bit_area(spec, make_code("HC", 2, 6))
        ahc = effective_bit_area(spec, make_code("AHC", 2, 6))
        assert ahc.effective_bit_area_nm2 < hc.effective_bit_area_nm2
