"""Deep-coverage tests for corners the module-level suites leave thin."""

import numpy as np
import pytest

from repro.codes import (
    ArrangedHotCode,
    BalancedGrayCode,
    GrayCode,
    HotCode,
    TreeCode,
    make_code,
)


class TestCodeEdgeSizes:
    def test_smallest_tree_code(self):
        tc = TreeCode(2, 1)
        assert tc.size == 2
        assert tc.pattern_words() == [(0, 1), (1, 0)]

    def test_smallest_hot_code(self):
        hc = HotCode(2, 1)
        assert hc.size == 2
        assert hc.is_uniquely_addressable()

    def test_largest_plotted_hot_code(self):
        """M = 10 (k = 5): 252 words, still distance-2 arrangeable."""
        ahc = ArrangedHotCode(2, 5)
        assert ahc.size == 252
        from repro.codes.metrics import is_distance_sequence

        assert is_distance_sequence(list(ahc.words), 2)

    def test_ternary_hot_code_arrangeable(self):
        ahc = ArrangedHotCode(3, 2)
        assert ahc.size == 90

    def test_bgc_equals_gc_word_set_at_every_plotted_size(self):
        for m in (3, 4, 5):
            assert set(BalancedGrayCode(2, m).words) == set(GrayCode(2, m).words)


class TestDesignFacadeCorners:
    def test_floorplan_decoder_overhead(self, spec):
        from repro.core.design import DecoderDesign

        short = DecoderDesign.build("TC", 6, spec=spec)
        long = DecoderDesign.build("TC", 10, spec=spec)
        # longer code: more mesowires but fewer contact rows
        assert long.floorplan.mesowire_span_nm > short.floorplan.mesowire_span_nm
        assert long.floorplan.contact_span_nm < short.floorplan.contact_span_nm

    def test_design_equality_of_paths(self, spec):
        """DecoderDesign, HalfCaveDecoder and crossbar_yield agree."""
        from repro.core.design import DecoderDesign
        from repro.crossbar.yield_model import crossbar_yield

        design = DecoderDesign.build("AHC", 8, spec=spec)
        assert design.cave_yield == pytest.approx(
            crossbar_yield(spec, design.space).cave_yield
        )
        assert design.summary()["phi"] == design.decoder.fabrication_complexity

    def test_ternary_design_point(self, spec):
        from repro.core.design import DecoderDesign

        design = DecoderDesign.build("GC", 6, n=3, spec=spec)
        assert design.space.n == 3
        assert 0 < design.cave_yield <= 1
        assert design.bit_area_nm2 > 0


class TestFigureGeneratorsCorners:
    def test_fig5_custom_families(self):
        from repro.analysis.figures import fig5_fabrication_complexity

        data = fig5_fabrication_complexity(families=("TC", "GC", "BGC"))
        assert set(data["Binary"]) == {"TC", "GC", "BGC"}
        assert data["Binary"]["BGC"] == 20

    def test_fig6_custom_lengths(self):
        from repro.analysis.figures import fig6_variability_maps

        data = fig6_variability_maps(lengths=(6,), families=("TC",))
        assert set(data) == {("TC", 6)}
        assert data[("TC", 6)].shape == (20, 6)

    def test_fig7_with_custom_spec(self):
        from repro.analysis.figures import fig7_crossbar_yield
        from repro.crossbar.spec import spec_with

        harsh = fig7_crossbar_yield(spec_with(sigma_t=0.10))
        mild = fig7_crossbar_yield(spec_with(sigma_t=0.03))
        for family in harsh:
            for (l1, y1), (l2, y2) in zip(harsh[family], mild[family]):
                assert l1 == l2
                assert y1 < y2


class TestMarginCorners:
    def test_margin_yield_extremes(self):
        from repro.decoder.margins import margin_report

        code = make_code("BGC", 2, 8)
        assert margin_report(code, 20, k_sigma=0.1).margin_yield == 1.0
        assert margin_report(code, 20, k_sigma=50.0).margin_yield == 0.0

    def test_ternary_margins(self):
        from repro.decoder.margins import margin_report

        report = margin_report(make_code("GC", 3, 6), 10, k_sigma=1.0)
        assert np.isfinite(report.select_margin_v)
        assert np.isfinite(report.block_margin_v)


class TestFullCaveAcrossFamilies:
    @pytest.mark.parametrize("family,length", [("GC", 8), ("AHC", 6)])
    def test_cave_summaries(self, spec, family, length):
        from repro.decoder.cave import FullCaveDecoder

        cave = FullCaveDecoder(spec=spec, space=make_code(family, 2, length))
        s = cave.summary()
        assert s["mirror_symmetric"] and s["uniquely_addressable"]


class TestEccLargerCode:
    def test_secded_64_57_single_error_correction(self, rng):
        from repro.crossbar.ecc import SecdedCode

        code = SecdedCode(parity_bits=6)
        data = rng.integers(0, 2, code.data_bits).astype(bool)
        block = code.encode(data)
        for pos in rng.choice(code.block_bits, size=10, replace=False):
            corrupted = block.copy()
            corrupted[pos] = ~corrupted[pos]
            decoded, corrected = code.decode(corrupted)
            assert np.array_equal(decoded, data)
            assert corrected == pos


class TestExportRoundTrips:
    def test_fig6_panels_to_csv(self, tmp_path):
        from repro.analysis.export import matrix_to_csv
        from repro.analysis.figures import fig6_variability_maps

        data = fig6_variability_maps(lengths=(8,), families=("BGC",))
        path = matrix_to_csv(data[("BGC", 8)], tmp_path / "panel.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 21  # header + 20 wires

    def test_headline_claims_to_json(self, tmp_path, spec):
        import json

        from repro.analysis.export import to_json
        from repro.analysis.stats import headline_summary

        claims = headline_summary(spec)
        path = to_json(
            [
                {"key": c.key, "paper": c.paper, "measured": c.measured_value}
                for c in claims
            ],
            tmp_path / "claims.json",
        )
        loaded = json.loads(path.read_text())
        assert len(loaded) == 10


class TestStochasticExample:
    def test_example_runs(self, capsys, monkeypatch):
        import runpy
        import sys
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "stochastic_baselines.py"
        )
        monkeypatch.setattr(sys, "argv", [str(path)])
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        assert "over-provisioning" in out
