"""Tests for the design-space evaluation pipeline (repro.exp).

Covers the four contract areas of the refactor:

* :class:`DesignPoint` normalisation / hashability / grid generation;
* :class:`SweepResult` columnar <-> record round-trips and serialisers;
* executor determinism (``jobs=1`` == ``jobs=4``, any chunking) and
  per-process cache behaviour;
* golden equivalence: the rebased fig7/fig8 generators, family sweeps
  and optimizer reproduce the pre-refactor per-point loops exactly.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.codes.base import CodeError
from repro.codes.registry import ALL_FAMILIES, make_code
from repro.crossbar.area import effective_bit_area
from repro.crossbar.yield_model import crossbar_yield
from repro.exp import (
    DesignPoint,
    SweepParams,
    SweepResult,
    cache_stats,
    clear_caches,
    design_grid,
    evaluate_point,
    function_sweep,
    run_sweep,
)

#: A >= 60-point grid (20 admissible code points x 3 sigma values).
GRID_AXES = {"sigma_t": (0.04, 0.05, 0.06)}


@pytest.fixture
def grid() -> list[DesignPoint]:
    return design_grid(axes=GRID_AXES)


class TestDesignPoint:
    def test_normalises_family_and_sorts_overrides(self):
        a = DesignPoint.make(" bgc ", 8, sigma_t=0.05, window_margin=0.9)
        b = DesignPoint.make("BGC", 8, window_margin=0.9, sigma_t=0.05)
        assert a == b
        assert a.family == "BGC"
        assert hash(a) == hash(b)
        assert a.overrides == (("sigma_t", 0.05), ("window_margin", 0.9))

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown spec override"):
            DesignPoint.make("TC", 8, pitch=99.0)

    def test_code_is_memoized_instance(self):
        p = DesignPoint.make("bgc", 8)
        assert p.code() is make_code("BGC", 2, 8)

    def test_resolved_spec_applies_overrides(self, spec):
        p = DesignPoint.make("TC", 8, sigma_t=0.07, nanowires=25)
        resolved = p.resolved_spec(spec)
        assert resolved.sigma_t == 0.07
        assert resolved.nanowires_per_half_cave == 25
        # no overrides -> the base spec itself (cache-friendly identity)
        assert DesignPoint.make("TC", 8).resolved_spec(spec) == spec

    def test_axes_columns(self):
        p = DesignPoint.make("HC", 6, n=2, sigma_t=0.05)
        assert p.axes() == {
            "family": "HC",
            "n": 2,
            "total_length": 6,
            "sigma_t": 0.05,
        }
        assert p.label == "HC/6"


class TestDesignGrid:
    def test_skips_inadmissible_points(self):
        points = design_grid(families=("TC", "HC"), lengths=(5, 6, 7, 8))
        labels = [p.label for p in points]
        assert labels == ["TC/6", "TC/8", "HC/6", "HC/8"]

    def test_unknown_family_rejected_not_dropped(self):
        with pytest.raises(CodeError, match="unknown code family"):
            design_grid(families=("TC", "XYZ"), lengths=(6,))

    def test_unvalidated_override_key_rejected_at_resolution(self, spec):
        rogue = DesignPoint("TC", 8, 2, (("sigma", 0.2),))
        with pytest.raises(ValueError, match="unknown spec override"):
            rogue.resolved_spec(spec)

    def test_crosses_axes(self, grid):
        assert len(grid) == 60  # 5 families x 4 lengths x 3 sigma values
        assert len(set(grid)) == 60
        for family in ALL_FAMILIES:
            assert sum(1 for p in grid if p.family == family) == 12

    def test_every_point_is_buildable(self, grid):
        for p in grid:
            assert p.code().total_length == p.total_length


class TestSweepResult:
    RECORDS = [
        {"family": "TC", "m": 6, "y": 0.5, "ok": True},
        {"family": "BGC", "m": 8, "y": 0.75, "ok": False},
    ]

    def test_record_round_trip_preserves_types(self):
        back = SweepResult.from_records(self.RECORDS).to_records()
        assert back == self.RECORDS
        for rec in back:
            assert type(rec["family"]) is str
            assert type(rec["m"]) is int
            assert type(rec["y"]) is float
            assert type(rec["ok"]) is bool

    def test_columns_are_typed_arrays(self):
        r = SweepResult.from_records(self.RECORDS)
        assert r.column("m").dtype == np.int64
        assert r.column("y").dtype == np.float64
        assert r.column("ok").dtype == np.bool_
        assert len(r) == 2 and r.fields == ("family", "m", "y", "ok")

    def test_inconsistent_records_rejected(self):
        with pytest.raises(ValueError):
            SweepResult.from_records([{"a": 1}, {"b": 2}])
        with pytest.raises(ValueError):
            SweepResult.from_records([])

    def test_csv_and_json_round_trip(self, tmp_path):
        r = SweepResult.from_records(self.RECORDS)
        text = r.to_csv_string().splitlines()
        assert text[0] == "family,m,y,ok"
        assert text[1] == "TC,6,0.5,True"
        data = json.loads(r.to_json_string())
        assert data == [
            {"family": "TC", "m": 6, "y": 0.5, "ok": True},
            {"family": "BGC", "m": 8, "y": 0.75, "ok": False},
        ]
        r.to_csv(tmp_path / "r.csv")
        r.to_json(tmp_path / "r.json")
        assert (tmp_path / "r.csv").read_text() == r.to_csv_string()

    def test_where_and_concat(self):
        r = SweepResult.from_records(self.RECORDS)
        tc = r.where(r.column("m") == 6)
        assert len(tc) == 1 and tc.to_records()[0]["family"] == "TC"
        both = SweepResult.concat([tc, r.where(r.column("m") == 8)])
        assert both == r

    def test_equality_is_exact(self):
        r = SweepResult.from_records(self.RECORDS)
        other = SweepResult.from_records(
            [dict(rec, y=rec["y"] + 1e-12) for rec in self.RECORDS]
        )
        assert r != other


class TestPipelineExecution:
    METRICS = ("yield", "area")

    def test_serial_equals_parallel(self, grid, spec):
        serial = run_sweep(grid, self.METRICS, spec=spec, jobs=1)
        parallel = run_sweep(grid, self.METRICS, spec=spec, jobs=4)
        assert serial == parallel
        assert serial.to_json_string() == parallel.to_json_string()
        assert serial.to_csv_string() == parallel.to_csv_string()

    def test_chunking_does_not_change_results(self, grid, spec):
        a = run_sweep(grid, self.METRICS, spec=spec, jobs=1, chunksize=1)
        b = run_sweep(grid, self.METRICS, spec=spec, jobs=1, chunksize=17)
        c = run_sweep(grid, self.METRICS, spec=spec, jobs=3, chunksize=7)
        assert a == b == c

    def test_row_order_follows_point_order(self, grid, spec):
        result = run_sweep(grid, ("complexity",), spec=spec, jobs=2)
        assert result.column("family").tolist() == [p.family for p in grid]
        assert result.column("total_length").tolist() == [p.total_length for p in grid]

    def test_montecarlo_metric_deterministic_across_jobs(self, spec):
        points = design_grid(families=("TC", "BGC"), lengths=(6, 8))
        params = SweepParams(mc_samples=200, mc_seed=7)
        a = run_sweep(points, ("montecarlo",), spec=spec, jobs=1, params=params)
        b = run_sweep(points, ("montecarlo",), spec=spec, jobs=4, params=params)
        assert a == b
        assert a.column("mc_samples").tolist() == [200] * len(points)

    def test_unknown_metric_rejected(self, grid, spec):
        with pytest.raises(KeyError, match="unknown metric"):
            run_sweep(grid[:2], ("bogus",), spec=spec)
        with pytest.raises(KeyError):
            evaluate_point(grid[0], spec, metrics=())

    def test_empty_points_rejected(self, spec):
        with pytest.raises(ValueError):
            run_sweep([], ("yield",), spec=spec)
        with pytest.raises(ValueError):
            run_sweep(design_grid(), ("yield",), spec=spec, jobs=0)

    def test_mixed_override_sets_rejected(self, spec):
        points = [
            DesignPoint.make("TC", 6),
            DesignPoint.make("TC", 6, sigma_t=0.05),
        ]
        with pytest.raises(ValueError, match="spec-override set"):
            run_sweep(points, ("yield",), spec=spec)


class TestCacheBehaviour:
    def test_sweep_hits_construction_caches(self, spec):
        clear_caches()
        grid = design_grid(axes=GRID_AXES)  # warms make_code via admissibility
        run_sweep(grid, ("yield", "area"), spec=spec, jobs=1)
        stats = cache_stats()
        # 20 unique (family, length) codes behind 60 grid points
        assert stats["make_code"]["misses"] == 20
        assert stats["make_code"]["hits"] >= 60
        # one decoder per (spec, code) point; yield+area reuse it:
        # area's evaluator alone resolves it twice more per point
        assert stats["decoder_for"]["misses"] == 60
        assert stats["decoder_for"]["hits"] >= 2 * 60
        # 3 perturbed specs behind 60 points
        assert stats["cached_spec"]["misses"] == 3
        assert stats["cached_spec"]["hits"] == 57

    def test_repeat_sweep_is_all_hits(self, spec):
        clear_caches()
        grid = design_grid(axes=GRID_AXES)
        first = run_sweep(grid, ("yield",), spec=spec)
        misses_after_first = {name: s["misses"] for name, s in cache_stats().items()}
        second = run_sweep(grid, ("yield",), spec=spec)
        assert second == first
        for name, s in cache_stats().items():
            assert s["misses"] == misses_after_first[name], name

    def test_make_code_shares_normalised_names(self):
        clear_caches()
        assert make_code("bgc", 2, 8) is make_code("BGC", 2, 8)
        assert make_code(" Bgc ", 2, 8) is make_code("BGC", 2, 8)
        assert make_code.cache_info().misses == 1

    def test_failed_builds_are_not_cached(self):
        with pytest.raises(CodeError):
            make_code("TC", 2, 7)
        with pytest.raises(CodeError):
            make_code("TC", 2, 7)

    def test_shared_fabrication_arrays_are_read_only(self, spec):
        from repro.crossbar.yield_model import decoder_for

        decoder = decoder_for(spec, make_code("BGC", 2, 8))
        for arr in (decoder.patterns, decoder.nu, decoder.plan.steps):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestGoldenEquivalence:
    """The rebased consumers reproduce the pre-refactor loops exactly."""

    def test_fig7_matches_per_point_loop(self, spec):
        from repro.analysis.figures import fig7_crossbar_yield

        expected = {}
        for family, lengths in (
            ("TC", (6, 8, 10)),
            ("BGC", (6, 8, 10)),
            ("HC", (4, 6, 8)),
            ("AHC", (4, 6, 8)),
        ):
            expected[family] = [
                (m, crossbar_yield(spec, make_code(family, 2, m)).cave_yield)
                for m in lengths
            ]
        assert fig7_crossbar_yield(spec) == expected
        assert fig7_crossbar_yield(spec, jobs=3) == expected

    def test_fig8_matches_per_point_loop(self, spec):
        from repro.analysis.figures import fig8_bit_area

        expected = {}
        for family, lengths in (
            ("TC", (6, 8, 10)),
            ("GC", (6, 8, 10)),
            ("BGC", (6, 8, 10)),
            ("HC", (4, 6, 8)),
            ("AHC", (4, 6, 8)),
        ):
            expected[family] = [
                (
                    m,
                    effective_bit_area(
                        spec, make_code(family, 2, m)
                    ).effective_bit_area_nm2,
                )
                for m in lengths
            ]
        assert fig8_bit_area(spec) == expected
        assert fig8_bit_area(spec, jobs=3) == expected

    def test_family_sweeps_return_identical_reports(self, spec):
        from repro.crossbar.area import family_area_sweep
        from repro.crossbar.yield_model import family_yield_sweep

        lengths = (6, 8, 10)
        assert family_yield_sweep(spec, "BGC", lengths) == [
            crossbar_yield(spec, make_code("BGC", 2, m)) for m in lengths
        ]
        assert family_area_sweep(spec, "BGC", lengths) == [
            effective_bit_area(spec, make_code("BGC", 2, m)) for m in lengths
        ]

    def test_objective_tables_stay_in_sync(self):
        from repro.core.objectives import OBJECTIVES
        from repro.core.optimizer import _OBJECTIVE_COLUMNS

        assert set(_OBJECTIVE_COLUMNS) == set(OBJECTIVES)

    @pytest.mark.parametrize(
        "objective", ["complexity", "variability", "yield", "bit_area"]
    )
    def test_optimizer_costs_match_objective_functions(self, spec, objective):
        from repro.core.objectives import get_objective
        from repro.core.optimizer import explore_designs

        score = get_objective(objective)
        result = explore_designs(objective, spec=spec, jobs=2)
        for point in result.points:
            assert point.cost == score(spec, point.design.space)

    def test_function_sweep_matches_legacy_records(self):
        axes = {"a": [1, 2], "b": [10, 20]}
        table = function_sweep(axes, lambda a, b: {"sum": a + b})
        assert table.to_records() == [
            {"a": 1, "b": 10, "sum": 11},
            {"a": 1, "b": 20, "sum": 21},
            {"a": 2, "b": 10, "sum": 12},
            {"a": 2, "b": 20, "sum": 22},
        ]
        # iterator-valued axes are materialised, not consumed twice
        table = function_sweep({"x": (i for i in range(3))}, lambda x: {"y": 2 * x})
        assert table.to_records() == [
            {"x": 0, "y": 0},
            {"x": 1, "y": 2},
            {"x": 2, "y": 4},
        ]


class TestSweepCLI:
    GRID_ARGS = [
        "sweep",
        "--metric",
        "yield,area",
        "--axis",
        "sigma_t=0.04,0.05,0.06",
        "--format",
        "json",
    ]

    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_parallel_output_byte_identical_to_serial(self, capsys):
        code, serial = self.run(capsys, *self.GRID_ARGS, "--jobs", "1")
        assert code == 0
        code, parallel = self.run(capsys, *self.GRID_ARGS, "--jobs", "4")
        assert code == 0
        # the result rows are byte-identical for any --jobs; the cache
        # section is a process-local diagnostic and legitimately differs
        # (workers warm their own memos)
        serial_doc, parallel_doc = json.loads(serial), json.loads(parallel)
        assert json.dumps(parallel_doc["records"]) == json.dumps(
            serial_doc["records"]
        )
        assert parallel_doc["design_points"] == serial_doc["design_points"] == 60
        assert len(serial_doc["records"]) == 60

    def test_json_format_surfaces_cache_counters(self, capsys):
        code, out = self.run(capsys, *self.GRID_ARGS, "--jobs", "1")
        assert code == 0
        cache = json.loads(out)["cache"]
        assert {"make_code", "decoder_for", "cached_spec"} <= set(cache)
        for counters in cache.values():
            assert {"hits", "misses", "currsize"} <= set(counters)
            assert all(v >= 0 for v in counters.values())
        # the memoized pipeline actually hits: a 60-point grid shares
        # codes and decoders across points
        assert cache["make_code"]["hits"] > 0

    def test_csv_format_and_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out = self.run(
            capsys,
            "sweep",
            "--families",
            "TC,BGC",
            "--lengths",
            "6,8",
            "--metric",
            "complexity",
            "--format",
            "csv",
            "--output",
            str(out_path),
        )
        assert code == 0 and "wrote" in out
        lines = out_path.read_text().splitlines()
        assert (
        lines[0] == "family,n,total_length,phi,sigma_norm_V2,average_variability_V2"
    )
        assert len(lines) == 5

    def test_table_format_reports_point_count(self, capsys):
        code, out = self.run(
            capsys,
            "sweep",
            "--families",
            "HC",
            "--lengths",
            "4,6",
        )
        assert code == 0
        assert "2 design points" in out and "cave_yield" in out

    def test_platform_knobs_apply(self, capsys):
        _, harsh = self.run(
            capsys,
            "--sigma-t",
            "0.10",
            "sweep",
            "--families",
            "BGC",
            "--lengths",
            "8",
            "--format",
            "json",
        )
        _, mild = self.run(
            capsys,
            "--sigma-t",
            "0.03",
            "sweep",
            "--families",
            "BGC",
            "--lengths",
            "8",
            "--format",
            "json",
        )
        assert (
            json.loads(harsh)["records"][0]["cave_yield"]
            < json.loads(mild)["records"][0]["cave_yield"]
        )

    def test_bad_axis_spec_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "sigma_t"])
        with pytest.raises(SystemExit, match="unknown spec override"):
            main(["sweep", "--axis", "bogus=1,2"])
        with pytest.raises(SystemExit, match="malformed value list"):
            main(["sweep", "--axis", "sigma_t=0.03,"])
        with pytest.raises(SystemExit, match="unknown code family"):
            main(["sweep", "--families", "TC,XYZ", "--lengths", "6"])

    def test_empty_grid_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--families", "TC", "--lengths", "5"])
