"""Telemetry must be numerically invisible: byte-identical results on/off.

The contract of :mod:`repro.obs` (design constraint #1): instrumentation
only reads clocks and writes telemetry state, never touching random
streams, accumulators or arrays.  These tests run every instrumented
layer — sweep pipeline (serial and worker pool), workload fleet (ideal
and electrical), MC engine, distributed shard run/merge, CLI stdout —
with telemetry enabled and disabled, and require exact equality of the
results, down to serialised bytes where a byte surface exists.
"""

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.codes.registry import make_code
from repro.crossbar.montecarlo import simulate_margin_yield
from repro.crossbar.spec import CrossbarSpec
from repro.exp import clear_caches, design_grid, run_sweep
from repro.sim.engine import MonteCarloEngine
from repro.workload import ElectricalReadout, MemoryFleet, prepare_workload
from tests.oracles.workload import run_fleet_loop


@pytest.fixture
def spec() -> CrossbarSpec:
    return CrossbarSpec()


@pytest.fixture(autouse=True)
def telemetry_off_guard():
    """Every test must leave telemetry disabled for its neighbours."""
    assert not obs.enabled()
    yield
    assert not obs.enabled()


def fleet_results_equal(a, b) -> bool:
    if a.summary != b.summary:
        return False
    if set(a.per_instance) != set(b.per_instance):
        return False
    for name in a.per_instance:
        if not np.array_equal(a.per_instance[name], b.per_instance[name]):
            return False
    for field in ("read_bits", "final_state", "margins", "margin_hist"):
        va, vb = getattr(a, field), getattr(b, field)
        if (va is None) != (vb is None):
            return False
        if va is not None and not np.array_equal(va, vb, equal_nan=True):
            return False
    return True


class TestSweepInvariance:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_csv_bytes_identical(self, spec, jobs):
        points = design_grid(axes={"sigma_t": (0.04, 0.05)})[:8]
        clear_caches()
        plain = run_sweep(points, metrics=("yield",), spec=spec, jobs=jobs)
        clear_caches()
        with obs.scoped():
            instrumented = run_sweep(
                points, metrics=("yield",), spec=spec, jobs=jobs
            )
        assert instrumented.to_csv_string() == plain.to_csv_string()
        assert instrumented.to_records() == plain.to_records()


class TestWorkloadInvariance:
    @pytest.mark.parametrize("runner", ["batched", "loop"])
    def test_fleet_result_identical(self, spec, runner):
        run = {"batched": MemoryFleet.run, "loop": run_fleet_loop}[runner]
        code = make_code("BGC", 2, 8)
        fleet, trace = prepare_workload(
            spec, code, accesses=300, instances=2, seed=5
        )
        kwargs = dict(seed=5, collect_reads=True, collect_state=True)
        plain = run(fleet, trace, **kwargs)
        with obs.scoped():
            instrumented = run(fleet, trace, **kwargs)
        assert fleet_results_equal(instrumented, plain)

    def test_electrical_fleet_result_identical(self, spec):
        from repro.crossbar.readout import ReadoutModel

        code = make_code("BGC", 2, 8)
        fleet, trace = prepare_workload(
            spec, code, accesses=200, instances=2, seed=7
        )
        readout = ElectricalReadout(
            model=ReadoutModel(r_on=1e4, r_off=1e7, v_read=1.0, scheme="float")
        )
        kwargs = dict(seed=7, readout=readout)
        plain = fleet.run(trace, **kwargs)
        with obs.scoped():
            instrumented = fleet.run(trace, **kwargs)
        assert fleet_results_equal(instrumented, plain)


class TestEngineInvariance:
    def test_engine_run_identical(self, spec):
        from repro.crossbar.yield_model import decoder_for

        engine = MonteCarloEngine(
            decoder_for(spec, make_code("BGC", 2, 8)).montecarlo_kernel
        )
        plain = engine.run(10_000, 3)
        with obs.scoped():
            instrumented = engine.run(10_000, 3)
        assert instrumented == plain


class TestShardInvariance:
    def test_merged_shards_match_telemetry_off_single_host(self, spec, tmp_path):
        """Shards always collect telemetry; the merged result must still
        equal a single-host run with telemetry fully disabled."""
        from repro import dist

        code = make_code("BGC", 2, 8)
        samples, seed, k_sigma = 12_000, 0, 3.0
        single = simulate_margin_yield(
            spec, code, samples=samples, seed=seed, k_sigma=k_sigma
        )
        plan = dist.plan_mc_shards(
            "marginmc",
            "BGC",
            8,
            shards=3,
            samples=samples,
            spec=spec,
            seed=seed,
            k_sigma=k_sigma,
        )
        job = tmp_path / "job"
        dist.write_job(job, plan)
        # run half the shards with the caller's telemetry enabled, half
        # disabled — the merge must not care
        for i, shard in enumerate(plan.shards):
            shard_file = job / "shards" / shard.file_name
            if i % 2:
                with obs.scoped():
                    dist.run_shard_file(shard_file)
            else:
                dist.run_shard_file(shard_file)
        merged = dist.merge_results(job)
        assert merged == single
        # every shard shipped a telemetry snapshot and a JSONL stream
        folded = dist.job_telemetry(job)
        assert folded["counters"]["sim.trials"] == samples
        streams = sorted((job / "results").glob("*.telemetry.jsonl"))
        assert len(streams) == len(plan.shards)


class TestCliInvariance:
    def test_profile_flag_leaves_stdout_identical(self, capsys):
        args = (
            "sweep",
            "--families",
            "TC,BGC",
            "--lengths",
            "6,8",
            "--format",
            "csv",
        )
        assert main(list(args)) == 0
        plain = capsys.readouterr()
        assert main(["--profile", *args]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain.out
        assert "span tree" in profiled.err
        assert "cli.sweep" in profiled.err
