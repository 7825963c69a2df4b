"""Unit tests for repro.analysis.report, function sweeps and spec_with."""

import pytest

from repro.analysis.report import (
    format_cell,
    format_delta_percent,
    format_percent,
    paper_vs_measured,
    render_table,
)
from repro.crossbar.spec import CrossbarSpec, spec_with
from repro.exp.pipeline import function_sweep


class TestFormatting:
    def test_format_cell_variants(self):
        assert format_cell(1.23456, 2) == "1.23"
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell("x") == "x"
        assert format_cell(7) == "7"

    def test_percent(self):
        assert format_percent(0.416) == "41.6%"
        assert format_delta_percent(-0.17) == "-17.0%"


class TestRenderTable:
    def test_alignment_and_rule(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert set(lines[1].strip()) == {"-", " "}
        # every line is padded to the same width
        assert len({len(line) for line in lines}) == 1

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_paper_vs_measured(self):
        out = paper_vs_measured([("yield", "42%", "40%")])
        assert "claim" in out and "42%" in out and "40%" in out


class TestSweep:
    def test_one_dimensional(self):
        table = function_sweep({"x": [1, 2, 3]}, lambda x: {"square": x * x})
        records = table.to_records()
        assert records == [
            {"x": 1, "square": 1},
            {"x": 2, "square": 4},
            {"x": 3, "square": 9},
        ]

    def test_grid(self):
        axes = {"a": [1, 2], "b": [10, 20]}
        records = function_sweep(axes, lambda a, b: {"sum": a + b}).to_records()
        assert len(records) == 4
        assert {"a": 2, "b": 10, "sum": 12} in records


class TestSpecWith:
    def test_identity_without_overrides(self):
        base = CrossbarSpec()
        assert spec_with(base) == base

    def test_overrides_applied(self):
        spec = spec_with(
            window_margin=0.8,
            sigma_t=0.06,
            nanowires=25,
            contact_gap_factor=2.0,
            alignment_tolerance_nm=3.0,
        )
        assert spec.window_margin == 0.8
        assert spec.sigma_t == 0.06
        assert spec.nanowires_per_half_cave == 25
        assert spec.rules.contact_gap_factor == 2.0
        assert spec.rules.alignment_tolerance_nm == 3.0

    def test_unrelated_rules_preserved(self):
        spec = spec_with(contact_gap_factor=2.0)
        assert spec.rules.litho_pitch_nm == 32.0
        assert spec.rules.nanowire_pitch_nm == 10.0
