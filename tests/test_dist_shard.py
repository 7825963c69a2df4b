"""Integration tests for repro.dist: plan, run, merge, resume, CLI.

The load-bearing claim of the shard layer is *byte identity*: for any
shard count, planning a job, running the shards (in any order, in any
mix of processes) and merging the content-keyed result files produces
exactly the object a single host would have computed — equal floats,
equal dtypes, equal serialised bytes.  These tests assert that with
``==`` and string equality, never ``allclose``.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.codes.registry import make_code
from repro.crossbar.montecarlo import simulate_cave_yield, simulate_margin_yield
from repro.crossbar.spec import CrossbarSpec
from repro.dist import (
    ShardSpec,
    launch,
    load_job,
    merge_results,
    pending_shards,
    plan_mc_shards,
    plan_sweep_shards,
    run_shard,
    status,
    write_job,
)
from repro.dist.manifest import manifest_path_for, results_dir_for
from repro.dist.spec import split_even
from repro.exp.designpoint import design_grid
from repro.exp.pipeline import run_sweep
from repro.exp.results import SweepResult

SPEC = CrossbarSpec()
GRID = design_grid(
    families=("TC", "BGC"), lengths=(6, 8), axes={"sigma_t": (0.04, 0.05)}
)


class TestPlanning:
    def test_plan_is_deterministic(self):
        a = plan_sweep_shards(GRID, ("yield",), shards=3, spec=SPEC)
        b = plan_sweep_shards(GRID, ("yield",), shards=3, spec=SPEC)
        assert a.key == b.key
        assert [s.key for s in a.shards] == [s.key for s in b.shards]

    def test_job_key_tracks_every_input(self):
        base = plan_mc_shards(
            "marginmc", "BGC", 8, shards=2, samples=4096, spec=SPEC
        )
        for kwargs in (
            {"seed": 1},
            {"samples": 8192},
            {"k_sigma": 2.0},
            {"stream_block": 1024},
        ):
            other = plan_mc_shards(
                "marginmc", "BGC", 8, shards=2, spec=SPEC,
                **{"samples": 4096, **kwargs},
            )
            assert other.key != base.key

    def test_split_even_partitions_exactly(self):
        for total in (1, 5, 16, 97):
            for parts in (1, 2, 3, 7, 200):
                ranges = split_even(total, parts)
                assert ranges[0][0] == 0 and ranges[-1][1] == total
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                widths = [hi - lo for lo, hi in ranges]
                assert max(widths) - min(widths) <= 1
                assert len(ranges) == min(parts, total)

    def test_shard_spec_roundtrip_and_units(self):
        plan = plan_mc_shards(
            "marginmc", "BGC", 8, shards=3, samples=10_000,
            spec=SPEC, stream_block=1024,
        )
        assert sum(s.units for s in plan.shards) == 10_000
        for shard in plan.shards:
            clone = ShardSpec.from_dict(
                json.loads(json.dumps(shard.to_dict()))
            )
            assert clone == shard and clone.key == shard.key

    def test_shared_stream_kernels_rejected(self):
        from repro.sim.engine import RandomCodesKernel, run_block_moments

        with pytest.raises(ValueError, match="shared-stream"):
            run_block_moments(RandomCodesKernel(8, 32), 4096)

    def test_old_layout_job_refused_with_a_clear_message(self, tmp_path):
        # the layout before shards embedded an api request: a kind plus
        # an ad-hoc payload per shard, and a job dict without "request"
        job = tmp_path / "old"
        (job / "shards").mkdir(parents=True)
        old_shard = {
            "kind": "cavemc", "job_key": "abc", "index": 0, "count": 1,
            "payload": {"samples": 4096, "block_start": 0, "block_stop": 1},
        }
        (job / "shards" / "0000-abc.json").write_text(json.dumps(old_shard))
        (job / "job.json").write_text(json.dumps({
            "job": {"kind": "cavemc", "samples": 4096, "key": "abc"},
            "shards": [{"index": 0, "key": "abc", "file": "0000-abc.json"}],
        }))
        with pytest.raises(ValueError, match="older shard layout.*re-plan"):
            load_job(job)
        with pytest.raises(ValueError, match="older shard layout"):
            ShardSpec.from_dict(old_shard)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown MC request kind"):
            plan_mc_shards("margin", "BGC", 8, shards=2, samples=4096)


class TestByteIdenticalMerge:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_marginmc_any_shard_count(self, tmp_path, shards):
        plan = plan_mc_shards(
            "marginmc", "BGC", 8, shards=shards, samples=6000,
            spec=SPEC, seed=3, k_sigma=2.5, stream_block=1024,
        )
        job = tmp_path / f"job{shards}"
        write_job(job, plan)
        launch(job, workers=1)
        merged = merge_results(job)
        single = simulate_margin_yield(
            SPEC, make_code("BGC", 2, 8), samples=6000, seed=3,
            k_sigma=2.5, stream_block=1024,
        )
        assert merged == single  # dataclass equality: every float bit-equal

    def test_cavemc_matches_batched_engine(self, tmp_path):
        plan = plan_mc_shards(
            "cavemc", "TC", 10, shards=3, samples=5000,
            spec=SPEC, seed=7, stream_block=512,
        )
        write_job(tmp_path / "job", plan)
        launch(tmp_path / "job", workers=1)
        merged = merge_results(tmp_path / "job")
        single = simulate_cave_yield(
            SPEC, make_code("TC", 2, 10), samples=5000, seed=7, stream_block=512
        )
        assert merged == single

    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_sweep_grid_any_shard_count(self, tmp_path, shards):
        metrics = ("yield", "margins")
        plan = plan_sweep_shards(GRID, metrics, shards=shards, spec=SPEC)
        job = tmp_path / f"job{shards}"
        write_job(job, plan)
        launch(job, workers=1)
        merged = merge_results(job)
        single = run_sweep(GRID, metrics, spec=SPEC, jobs=1)
        assert isinstance(merged, SweepResult)
        assert merged == single  # columns, dtypes and values
        assert merged.to_csv_string() == single.to_csv_string()
        assert merged.to_json_string() == single.to_json_string()

    def test_sweep_multiprocess_launch(self, tmp_path):
        plan = plan_sweep_shards(GRID, ("yield",), shards=4, spec=SPEC)
        write_job(tmp_path / "job", plan)
        report = launch(tmp_path / "job", workers=2)
        assert report.ran == (0, 1, 2, 3)
        assert merge_results(tmp_path / "job") == run_sweep(
            GRID, ("yield",), spec=SPEC, jobs=1
        )


class TestSupervisorScheduling:
    def test_next_shard_starts_without_a_fixed_sleep(self, tmp_path, monkeypatch):
        """A clean job never sleeps between shards: the supervisor blocks
        on worker exit and starts the next shard in the freed slot."""
        plan = plan_mc_shards(
            "marginmc", "BGC", 8, shards=4, samples=4096,
            spec=SPEC, seed=3, k_sigma=2.5, stream_block=1024,
        )
        job = tmp_path / "job"
        write_job(job, plan)

        def no_sleep(seconds):
            raise AssertionError(f"supervisor slept {seconds} s between shards")

        monkeypatch.setattr("repro.dist.supervisor.time.sleep", no_sleep)
        report = launch(job, workers=1)
        monkeypatch.undo()
        assert report.ran == (0, 1, 2, 3) and report.retried == ()
        assert merge_results(job) == simulate_margin_yield(
            SPEC, make_code("BGC", 2, 8), samples=4096, seed=3,
            k_sigma=2.5, stream_block=1024,
        )


class TestCheckpointResume:
    def make_job(self, tmp_path, shards=3):
        plan = plan_sweep_shards(GRID, ("yield",), shards=shards, spec=SPEC)
        job = tmp_path / "job"
        write_job(job, plan)
        return job, plan

    def test_launch_skips_completed_shards(self, tmp_path):
        job, plan = self.make_job(tmp_path)
        first = launch(job, workers=1)
        assert first.ran == (0, 1, 2) and first.skipped == ()
        again = launch(job, workers=1)
        assert again.ran == () and again.skipped == (0, 1, 2)

    def test_truncated_manifest_forces_rerun(self, tmp_path):
        """Kill-and-resume: losing manifest lines re-runs those shards and
        the resumed merge is byte-identical to the uninterrupted one."""
        job, plan = self.make_job(tmp_path)
        launch(job, workers=1)
        uninterrupted = merge_results(job).to_csv_string()

        manifest = manifest_path_for(job)
        lines = manifest.read_text().splitlines()
        manifest.write_text(lines[0] + "\n")  # simulate a mid-job crash
        assert [s.index for s in pending_shards(job)] != []

        resumed = launch(job, workers=1)
        assert set(resumed.ran) == {1, 2} and resumed.skipped == (0,)
        assert merge_results(job).to_csv_string() == uninterrupted

    def test_missing_result_file_forces_rerun(self, tmp_path):
        """A manifest line without its result file does not count as done."""
        job, plan = self.make_job(tmp_path)
        launch(job, workers=1)
        victim = plan.shards[1]
        (results_dir_for(job) / victim.file_name).unlink()
        report = launch(job, workers=1)
        assert report.ran == (1,)
        assert merge_results(job) == run_sweep(GRID, ("yield",), spec=SPEC)

    def test_merge_refuses_incomplete_job(self, tmp_path):
        job, plan = self.make_job(tmp_path)
        with pytest.raises(FileNotFoundError, match=r"\[0, 1, 2\]"):
            merge_results(job)

    def test_status_reports_progress(self, tmp_path):
        job, plan = self.make_job(tmp_path)
        assert status(job)["completed"] == 0
        launch(job, workers=1)
        report = status(job)
        assert report["completed"] == 3 and report["pending"] == []
        assert report["job_key"] == plan.key

    def test_result_from_wrong_job_is_detected(self, tmp_path):
        job, plan = self.make_job(tmp_path)
        launch(job, workers=1)
        target = plan.shards[0]
        path = results_dir_for(job) / target.file_name
        doc = json.loads(path.read_text())
        doc["shard_key"] = "000000000000"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="does not match shard"):
            merge_results(job)


class TestRunShard:
    def test_result_document_shape(self):
        plan = plan_mc_shards(
            "marginmc", "BGC", 8, shards=2, samples=3000,
            spec=SPEC, stream_block=1024,
        )
        doc = run_shard(plan.shards[1])
        assert doc["kind"] == "marginmc"
        assert doc["job_key"] == plan.key
        assert doc["shard_key"] == plan.shards[1].key
        assert doc["units"] == plan.shards[1].units
        assert doc["elapsed_s"] > 0
        assert "make_code" in doc["cache"]
        states = doc["data"]["metrics"]["margin_yield"]
        assert sum(s[0] for s in states) == plan.shards[1].units

    def test_mc_shards_cover_disjoint_blocks(self):
        plan = plan_mc_shards(
            "cavemc", "TC", 8, shards=3, samples=10_000,
            spec=SPEC, stream_block=1024,
        )
        ranges = [(s.start, s.stop) for s in plan.shards]
        assert ranges[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert ranges[-1][1] == 10  # ceil(10000 / 1024)


class TestShardCLI:
    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_plan_launch_merge_csv_byte_equal_to_sweep(self, capsys, tmp_path):
        job = str(tmp_path / "job")
        merged_csv = tmp_path / "merged.csv"
        single_csv = tmp_path / "single.csv"
        grid = ["--families", "TC,BGC", "--lengths", "6,8", "--metric", "yield,area"]

        code, out = self.run(
            capsys, "shard", "plan", "sweep", job, "--shards", "2", *grid
        )
        assert code == 0 and "planned sweep job" in out

        plan = load_job(job)
        spec_file = tmp_path / "job" / "shards" / plan.shards[0].file_name
        code, out = self.run(capsys, "shard", "run", str(spec_file))
        assert code == 0 and "shard 1/2" in out

        code, out = self.run(capsys, "shard", "launch", job, "--workers", "1")
        assert code == 0 and "ran 1 shard(s) [1], skipped 1" in out

        code, out = self.run(capsys, "shard", "status", job)
        assert code == 0 and json.loads(out)["pending"] == []

        code, _ = self.run(
            capsys, "shard", "merge", job,
            "--format", "csv", "--output", str(merged_csv),
        )
        assert code == 0
        code, _ = self.run(
            capsys, "sweep", *grid, "--format", "csv", "--output", str(single_csv),
        )
        assert code == 0
        assert merged_csv.read_bytes() == single_csv.read_bytes()

    def test_marginmc_cli_roundtrip(self, capsys, tmp_path):
        job = str(tmp_path / "mc")
        code, _ = self.run(
            capsys, "shard", "plan", "marginmc", job, "BGC", "-M", "8",
            "--samples", "4000", "--shards", "3", "--stream-block", "1024",
        )
        assert code == 0
        code, _ = self.run(capsys, "shard", "launch", job, "--workers", "1")
        assert code == 0
        code, out = self.run(capsys, "shard", "merge", job, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        single = simulate_margin_yield(
            CrossbarSpec(), make_code("BGC", 2, 8),
            samples=4000, seed=0, k_sigma=3.0, stream_block=1024,
        )
        assert payload["samples"] == 4000
        assert payload["mean_margin_yield"] == single.mean_margin_yield
        assert payload["std_margin_yield"] == single.std_margin_yield


class TestEnginePrimitives:
    def test_total_blocks_and_block_sizes(self):
        from repro.sim.batch import Chunk, block_sizes, total_blocks

        assert total_blocks(10_000, 1024) == 10
        assert total_blocks(1024, 1024) == 1
        widths = block_sizes(Chunk(0, 10_000), 1024)
        assert widths[:9] == [1024] * 9 and widths[9] == 10_000 - 9 * 1024
        assert sum(widths) == 10_000
        with pytest.raises(ValueError, match="at least one sample"):
            total_blocks(0, 1024)

    def test_run_block_moments_fold_equals_engine(self):
        from repro.crossbar.montecarlo import yield_kernel
        from repro.sim.accumulators import MomentSet, StreamingMoments
        from repro.sim.engine import MonteCarloEngine, run_block_moments

        # 3000 trials = 5 full blocks of 512 and a partial one of 440;
        # the 1024-trial chunk bound runs them as three chunks
        for k_sigma in (3.0, None):  # margin kernel, cave kernel
            kernel = yield_kernel(SPEC, make_code("BGC", 2, 8), k_sigma)
            engine = MonteCarloEngine(
                kernel, max_trials_per_chunk=1024, stream_block=512
            )
            single = engine.run(3000, 5)

            half = run_block_moments(
                kernel, 3000, 5, block_start=0, block_stop=3, stream_block=512
            )
            rest = run_block_moments(kernel, 3000, 5, block_start=3, stream_block=512)
            widths = [states[kernel.metrics[0]][0] for states in rest]
            assert widths == [512, 512, 440]
            folded = MomentSet(kernel.metrics)
            for states in (*half, *rest):
                folded.fold(states)
            for name in kernel.metrics:
                acc = StreamingMoments()
                for states in (*half, *rest):
                    acc.merge(StreamingMoments.from_state(*states[name]))
                assert acc.state() == folded[name].state()
                assert acc.count == single.samples
                assert acc.mean == single[name].mean
                assert acc.std == single[name].std
