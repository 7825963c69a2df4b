"""Unit tests for repro.core.design and optimizer, and the objective registry."""

import pytest

from repro.codes import make_code
from repro.core.design import DecoderDesign
from repro.core.optimizer import OBJECTIVES, explore_designs, optimize_design
from tests.oracles.objectives import COSTS


class TestDecoderDesign:
    def test_build_by_name(self):
        design = DecoderDesign.build("BGC", total_length=10)
        assert design.space.family == "BGC"
        assert design.space.total_length == 10

    def test_headline_properties_consistent(self, spec):
        design = DecoderDesign.build("GC", 8, spec=spec)
        assert design.cave_yield == pytest.approx(design.yield_report.cave_yield)
        assert design.bit_area_nm2 == pytest.approx(
            design.area_report.effective_bit_area_nm2
        )
        assert design.effective_bits <= spec.raw_bits

    def test_variability_map_shape(self, spec):
        design = DecoderDesign.build("TC", 8, spec=spec)
        assert design.variability_map.shape == (20, 8)

    def test_floorplan_uses_group_count(self, spec):
        design = DecoderDesign.build("TC", 6, spec=spec)  # Omega=8 -> 3 groups
        assert design.floorplan.groups_per_half_cave == 3

    def test_summary_fields(self, spec):
        s = DecoderDesign.build("AHC", 6, spec=spec).summary()
        assert s["family"] == "AHC"
        assert s["code_space"] == 20
        assert s["phi"] > 0
        assert 0 < s["cave_yield"] <= 1


class TestObjectives:
    def test_registry_complete(self):
        assert set(OBJECTIVES) == {"complexity", "variability", "yield", "bit_area"}

    def test_lookup_case_insensitive(self, spec):
        grid = {"families": ("BGC",), "lengths": (8,), "spec": spec}
        mixed = explore_designs("Yield", **grid)
        assert [p.cost for p in mixed.points] == [
            p.cost for p in explore_designs("yield", **grid).points
        ]

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            explore_designs("nope")

    def test_cli_choices_come_from_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        optimize = sub.choices["optimize"]
        action = next(a for a in optimize._actions if a.dest == "objective")
        assert action.choices == list(OBJECTIVES)

    def test_costs_match_design_figures(self, spec):
        code = make_code("BGC", 2, 8)
        design = DecoderDesign(space=code, spec=spec)
        assert COSTS["complexity"](spec, code) == design.fabrication_complexity
        assert COSTS["variability"](spec, code) == pytest.approx(design.sigma_norm)
        assert COSTS["yield"](spec, code) == pytest.approx(-design.cave_yield)
        assert COSTS["bit_area"](spec, code) == pytest.approx(design.bit_area_nm2)


class TestExploreDesigns:
    def test_skips_inadmissible_lengths(self, spec):
        result = explore_designs("yield", families=("TC",), lengths=(5, 6), spec=spec)
        assert [p.design.space.total_length for p in result.points] == [6]

    def test_best_is_minimum_cost(self, spec):
        result = explore_designs("bit_area", spec=spec)
        costs = [p.cost for p in result.points]
        assert result.best.cost == min(costs)

    def test_ranking_sorted(self, spec):
        ranking = explore_designs("yield", spec=spec).ranking()
        assert all(a.cost <= b.cost for a, b in zip(ranking, ranking[1:]))

    def test_empty_space_raises(self, spec):
        with pytest.raises(ValueError):
            explore_designs("yield", families=("TC",), lengths=(5,), spec=spec)

    def test_labels(self, spec):
        result = explore_designs("yield", families=("BGC",), lengths=(8,), spec=spec)
        assert result.points[0].label == "BGC/8"


class TestOptimizeDesign:
    def test_yield_optimum_is_optimised_family(self, spec):
        """The paper's conclusion: BGC/AHC designs win."""
        best = optimize_design("yield", spec=spec)
        assert best.space.family in ("BGC", "AHC")

    def test_bit_area_optimum_near_paper(self, spec):
        best = optimize_design("bit_area", spec=spec)
        assert best.space.family in ("BGC", "AHC")
        assert best.bit_area_nm2 == pytest.approx(170, rel=0.15)

    def test_variability_optimum_prefers_gray_family(self, spec):
        best = optimize_design(
            "variability", families=("TC", "GC", "BGC"), lengths=(8,), spec=spec
        )
        assert best.space.family in ("GC", "BGC")
