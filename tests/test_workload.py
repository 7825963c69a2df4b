"""Equivalence and unit tests for the trace-driven workload engine.

The contract under test (see ``repro/workload/memory_batch.py``):

* the batched vectorised executor is **byte-identical** to the scalar
  loop oracle in ``tests/oracles/workload.py`` (CrossbarMemory /
  SecdedCode per access) — read values, final stored state, and every
  per-instance metric;
* results are invariant to ``chunk_size``;
* trace generators are pure functions of their arguments.
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.crossbar.defects import DefectMap
from repro.crossbar.ecc import SecdedCode, decode_blocks, encode_blocks
from repro.crossbar.spec import CrossbarSpec
from repro.workload import (
    FLEET_METRICS,
    MemoryFleet,
    Trace,
    TraceError,
    exhausted_fraction,
    make_trace,
)
from tests.oracles.workload import run_fleet_loop

#: Small platform so the scalar loop reference stays fast.
SMALL_SPEC = CrossbarSpec(raw_kilobytes=0.5)
CODE = make_code("BGC", 2, 8)


def small_fleet(instances=3, seed=5, ecc=None):
    return MemoryFleet.sample(SMALL_SPEC, CODE, instances, seed=seed, ecc=ecc)


def assert_runs_equal(a, b):
    assert a.per_instance.keys() == b.per_instance.keys()
    for name in a.per_instance:
        assert np.array_equal(a.per_instance[name], b.per_instance[name]), name
    assert np.array_equal(a.read_bits, b.read_bits)
    assert np.array_equal(a.final_state, b.final_state)


# -- trace generators ----------------------------------------------------------


class TestTraces:
    @pytest.mark.parametrize("kind", ["uniform", "sequential", "zipfian", "bursty"])
    def test_deterministic_per_seed(self, kind):
        a = make_trace(kind, 500, 100, seed=9)
        b = make_trace(kind, 500, 100, seed=9)
        c = make_trace(kind, 500, 100, seed=10)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.is_write, b.is_write)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.addresses, c.addresses) or not np.array_equal(
            a.is_write, c.is_write
        )

    @pytest.mark.parametrize("kind", ["uniform", "sequential", "zipfian", "bursty"])
    def test_bounds_and_shape(self, kind):
        t = make_trace(kind, 777, 33, seed=1)
        assert t.accesses == 777
        assert t.reads + t.writes == 777
        assert t.addresses.min() >= 0 and t.addresses.max() < 33

    def test_write_fraction_extremes(self):
        all_reads = make_trace("uniform", 200, 10, write_fraction=0.0, seed=0)
        all_writes = make_trace("uniform", 200, 10, write_fraction=1.0, seed=0)
        assert all_reads.writes == 0
        assert all_writes.reads == 0

    def test_sequential_pattern(self):
        t = make_trace("sequential", 10, 4, seed=0, start=2)
        assert np.array_equal(t.addresses, (2 + np.arange(10)) % 4)

    def test_zipf_is_head_heavy(self):
        t = make_trace("zipfian", 20_000, 1000, seed=3, skew=1.2)
        head = (t.addresses < 10).mean()
        tail = (t.addresses >= 990).mean()
        assert head > 10 * tail

    def test_bursty_has_locality(self):
        t = make_trace("bursty", 20_000, 10_000, seed=3, mean_burst=64)
        unit_steps = (np.diff(t.addresses) == 1).mean()
        baseline = (
        np.diff(make_trace("uniform", 20_000, 10_000, seed=3).addresses) == 1
    ).mean()
        assert unit_steps > 0.5 > baseline

    def test_rejects_bad_parameters(self):
        with pytest.raises(TraceError):
            make_trace("uniform", 0, 10)
        with pytest.raises(TraceError):
            make_trace("uniform", 10, 0)
        with pytest.raises(TraceError):
            make_trace("uniform", 10, 10, write_fraction=1.5)
        with pytest.raises(TraceError):
            make_trace("nope", 10, 10)

    def test_trace_validates_columns(self):
        with pytest.raises(TraceError):
            Trace(
                name="bad",
                addresses=np.array([0, 5]),
                is_write=np.array([True, False]),
                values=np.array([True, False]),
                address_space=3,
            )


# -- vectorised SECDED codecs --------------------------------------------------


class TestBlockCodecs:
    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_encode_matches_scalar(self, r, rng):
        code = SecdedCode(parity_bits=r)
        payloads = rng.integers(0, 2, (20, code.data_bits)).astype(bool)
        blocks = encode_blocks(code, payloads)
        for row, payload in zip(blocks, payloads):
            assert np.array_equal(row, code.encode(payload))

    @pytest.mark.parametrize("errors", [0, 1, 2])
    def test_decode_matches_scalar(self, errors, rng):
        code = SecdedCode(parity_bits=4)
        payloads = rng.integers(0, 2, (50, code.data_bits)).astype(bool)
        blocks = encode_blocks(code, payloads)
        for row in blocks:
            positions = rng.choice(code.block_bits, size=errors, replace=False)
            row[positions] ^= True
        decoded, corrected, uncorrectable = decode_blocks(code, blocks)
        if errors == 0:
            assert np.array_equal(decoded, payloads)
            assert (corrected == -1).all() and not uncorrectable.any()
        elif errors == 1:
            assert np.array_equal(decoded, payloads)
            assert (corrected >= 0).all() and not uncorrectable.any()
        else:
            assert uncorrectable.all()


# -- fleet construction --------------------------------------------------------


class TestFleetSampling:
    def test_deterministic_per_seed(self):
        a, b = small_fleet(seed=7), small_fleet(seed=7)
        assert np.array_equal(a.capacity_bits, b.capacity_bits)

    def test_instance_prefix_stable(self):
        small = small_fleet(instances=2, seed=7)
        large = small_fleet(instances=4, seed=7)
        assert np.array_equal(small.capacity_bits, large.capacity_bits[:2])

    def test_remap_matches_scalar_memory(self):
        """The a-th working crosspoint rule matches CrossbarMemory."""
        from repro.crossbar.memory import CrossbarMemory

        fleet = small_fleet(instances=1, seed=3)
        mem = CrossbarMemory(fleet._maps[0])
        trace = make_trace("uniform", 300, int(fleet.capacity_bits[0]), seed=1)
        result = fleet.run(trace, collect_state=True)
        for j in range(trace.accesses):
            if trace.is_write[j]:
                mem.write(int(trace.addresses[j]), bool(trace.values[j]))
        assert np.array_equal(result.final_state[0], mem.raw_state().ravel())

    def test_rejects_empty_and_mixed_geometry(self):
        with pytest.raises(ValueError):
            MemoryFleet([])
        with pytest.raises(ValueError):
            MemoryFleet(
                [
                    DefectMap(np.ones(4, bool), np.ones(4, bool)),
                    DefectMap(np.ones(5, bool), np.ones(4, bool)),
                ]
            )

    def test_ecc_capacity_accounting(self):
        ecc = SecdedCode(parity_bits=3)
        fleet = small_fleet(ecc=ecc)
        blocks = fleet.capacity_bits // ecc.block_bits
        assert np.array_equal(fleet.address_capacities, blocks)
        assert np.array_equal(fleet.payload_capacity_bits, blocks * ecc.data_bits)


# -- batched vs loop equivalence -----------------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("kind", ["uniform", "sequential", "zipfian", "bursty"])
    def test_raw_mode_byte_identical(self, kind):
        fleet = small_fleet()
        space = fleet.suggested_address_space() + 40  # force some failures
        trace = make_trace(kind, 3000, space, seed=3)
        batched = fleet.run(
            trace,
            chunk_size=251,
            collect_reads=True,
            collect_state=True,
        )
        loop = run_fleet_loop(fleet, trace, collect_reads=True, collect_state=True)
        assert_runs_equal(batched, loop)

    def test_ecc_mode_byte_identical(self):
        fleet = small_fleet(ecc=SecdedCode(parity_bits=3))
        space = fleet.suggested_address_space() + 10
        trace = make_trace("uniform", 1500, space, seed=3)
        for p in (0.0, 0.03):
            batched = fleet.run(
                trace,
                chunk_size=177,
                seed=9,
                write_error_rate=p,
                collect_reads=True,
                collect_state=True,
            )
            loop = run_fleet_loop(
                fleet,
                trace,
                seed=9,
                write_error_rate=p,
                collect_reads=True,
                collect_state=True,
            )
            assert_runs_equal(batched, loop)

    def test_raw_mode_error_injection_byte_identical(self):
        fleet = small_fleet()
        trace = make_trace("uniform", 2000, fleet.suggested_address_space(), seed=4)
        batched = fleet.run(
            trace,
            chunk_size=499,
            seed=11,
            write_error_rate=0.05,
            collect_reads=True,
            collect_state=True,
        )
        loop = run_fleet_loop(
            fleet,
            trace,
            seed=11,
            write_error_rate=0.05,
            collect_reads=True,
            collect_state=True,
        )
        assert_runs_equal(batched, loop)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000, 10_000])
    def test_chunk_size_invariance(self, chunk):
        fleet = small_fleet()
        trace = make_trace(
        "zipfian", 3000, fleet.suggested_address_space() + 20, seed=6
    )
        reference = fleet.run(
            trace,
            chunk_size=3000,
            seed=2,
            write_error_rate=0.01,
            collect_reads=True,
            collect_state=True,
        )
        other = fleet.run(
            trace,
            chunk_size=chunk,
            seed=2,
            write_error_rate=0.01,
            collect_reads=True,
            collect_state=True,
        )
        assert_runs_equal(reference, other)

    def test_read_after_write_within_chunk(self):
        """Forwarding: a read sees the last prior write, not the snapshot."""
        dm = DefectMap(np.ones(4, bool), np.ones(4, bool))
        fleet = MemoryFleet([dm])
        trace = Trace(
            name="raw-chain",
            addresses=np.array([3, 3, 3, 3, 3], dtype=np.int64),
            is_write=np.array([True, False, True, False, False]),
            values=np.array([True, False, False, False, False]),
            address_space=16,
        )
        result = fleet.run(trace, chunk_size=5, collect_reads=True)
        # read 0 sees the True write, reads 1-2 see the False overwrite
        assert result.read_bits[0].tolist() == [True, False, False]


# -- metrics -------------------------------------------------------------------


class TestMetrics:
    def test_failure_accounting_hand_built(self):
        """2x2 fully-working instance, capacity 4: addresses >= 4 fail."""
        dm = DefectMap(np.ones(2, bool), np.ones(2, bool))
        fleet = MemoryFleet([dm])
        trace = Trace(
            name="hand",
            addresses=np.array([0, 5, 1, 6, 2], dtype=np.int64),
            is_write=np.array([True, True, False, False, False]),
            values=np.ones(5, bool),
            address_space=8,
        )
        result = fleet.run(trace, collect_reads=True)
        assert result.per_instance["failures"][0] == 2
        assert result.per_instance["failure_rate"][0] == pytest.approx(0.4)
        assert result.per_instance["first_failure_index"][0] == 1
        assert result.per_instance["effective_capacity_bits"][0] == 4
        assert exhausted_fraction(result.per_instance) == 1.0

    def test_no_failures_sentinel(self):
        dm = DefectMap(np.ones(3, bool), np.ones(3, bool))
        fleet = MemoryFleet([dm])
        trace = make_trace("uniform", 50, 9, seed=0)
        result = fleet.run(trace)
        assert result.per_instance["failures"][0] == 0
        assert result.per_instance["first_failure_index"][0] == 50
        assert exhausted_fraction(result.per_instance) == 0.0

    def test_summary_matches_numpy_moments(self):
        fleet = small_fleet()
        trace = make_trace("uniform", 500, fleet.suggested_address_space() + 30, seed=8)
        result = fleet.run(trace)
        for name in FLEET_METRICS:
            values = np.asarray(result.per_instance[name], dtype=float)
            assert result[name].mean == pytest.approx(values.mean())
            assert result[name].std == pytest.approx(values.std(ddof=1))

    def test_ecc_corrected_counts_single_injected_errors(self):
        """One flipped bit per written block is always repaired."""
        ecc = SecdedCode(parity_bits=3)
        side = 16
        dm = DefectMap(np.ones(side, bool), np.ones(side, bool))
        fleet = MemoryFleet([dm], ecc=ecc)
        blocks = int(fleet.address_capacities[0])
        # write every block once, then read every block once
        addresses = np.concatenate([np.arange(blocks), np.arange(blocks)])
        trace = Trace(
            name="ecc-hand",
            addresses=addresses.astype(np.int64),
            is_write=np.concatenate(
                [np.ones(blocks, bool), np.zeros(blocks, bool)]
            ),
            values=np.concatenate([np.ones(blocks, bool), np.zeros(blocks, bool)]),
            address_space=blocks,
        )
        clean = fleet.run(trace, collect_reads=True)
        assert clean.per_instance["corrected"][0] == 0
        assert clean.per_instance["uncorrectable"][0] == 0
        assert clean.read_bits.all()  # every block returns its payload


# -- exp-pipeline integration --------------------------------------------------


class TestWorkloadEvaluator:
    def test_registered_and_runs(self):
        from repro.exp.designpoint import DesignPoint
        from repro.exp.pipeline import EVALUATORS, SweepParams, evaluate_point

        assert "workload" in EVALUATORS
        record = evaluate_point(
            DesignPoint.make("BGC", 8),
            spec=SMALL_SPEC,
            metrics=("workload",),
            params=SweepParams(wl_accesses=500, wl_instances=2),
        )
        assert record["wl_instances"] == 2
        assert 0.0 <= record["wl_failure_rate_mean"] <= 1.0
        assert record["wl_capacity_mean"] > 0

    def test_ecc_knobs_reach_the_fleet(self):
        """wl_ecc + wl_error_rate drive nonzero corrected counts."""
        from repro.exp.designpoint import DesignPoint
        from repro.exp.pipeline import SweepParams, evaluate_point

        record = evaluate_point(
            DesignPoint.make("BGC", 8),
            spec=SMALL_SPEC,
            metrics=("workload",),
            params=SweepParams(
                wl_accesses=2000,
                wl_instances=2,
                wl_ecc=True,
                wl_error_rate=0.02,
            ),
        )
        assert record["wl_corrected_mean"] > 0

    def test_sweep_reproducible_across_jobs(self):
        from repro.exp.designpoint import design_grid
        from repro.exp.pipeline import SweepParams, run_sweep

        points = design_grid(families=("TC", "BGC"), lengths=(6, 8))
        params = SweepParams(wl_accesses=400, wl_instances=2)
        serial = run_sweep(points, ("workload",), spec=SMALL_SPEC, params=params)
        parallel = run_sweep(
            points, ("workload",), spec=SMALL_SPEC, params=params, jobs=2
        )
        assert serial.to_csv_string() == parallel.to_csv_string()


# -- CLI -----------------------------------------------------------------------


class TestMemsimCli:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_memsim_table(self, capsys):
        code, out = self.run_cli(
            capsys,
            "--raw-kb",
            "0.5",
            "memsim",
            "BGC",
            "-M",
            "8",
            "--accesses",
            "2000",
            "--instances",
            "2",
            "--seed",
            "4",
        )
        assert code == 0
        assert "effective_capacity_bits" in out
        assert "fleet accesses/s" in out

    def test_memsim_json_and_ecc(self, capsys):
        import json

        code, out = self.run_cli(
            capsys,
            "--raw-kb",
            "0.5",
            "memsim",
            "BGC",
            "-M",
            "8",
            "--accesses",
            "1000",
            "--instances",
            "2",
            "--ecc",
            "--error-rate",
            "0.001",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ecc"] is True
        assert "corrected" in payload["metrics"]

    def test_memsim_methods_agree(self, capsys, monkeypatch):
        args = (
            "--raw-kb",
            "0.5",
            "memsim",
            "BGC",
            "-M",
            "8",
            "--accesses",
            "1000",
            "--instances",
            "2",
            "--format",
            "json",
        )
        _, batched = self.run_cli(capsys, *args)
        # the same command with the scalar loop oracle as the executor
        monkeypatch.setattr(MemoryFleet, "run", run_fleet_loop)
        _, loop = self.run_cli(capsys, *args)
        import json

        lhs, rhs = json.loads(batched), json.loads(loop)
        lhs.pop("accesses_per_second"), rhs.pop("accesses_per_second")
        # the timing section reports wall clock, not results
        lhs.pop("timing"), rhs.pop("timing")
        assert lhs == rhs

    def test_sweep_seed_changes_workload(self, capsys):
        base = (
            "--raw-kb",
            "0.5",
            "sweep",
            "--families",
            "BGC",
            "--lengths",
            "8",
            "--metric",
            "workload",
            "--wl-accesses",
            "300",
            "--wl-instances",
            "2",
            "--format",
            "csv",
        )
        _, a = self.run_cli(capsys, *base, "--seed", "0")
        _, b = self.run_cli(capsys, *base, "--seed", "1")
        _, a2 = self.run_cli(capsys, *base, "--seed", "0")
        assert a == a2
        assert a != b
