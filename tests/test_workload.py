"""Equivalence and unit tests for the trace-driven workload engine.

The contract under test (see ``repro/workload/memory_batch.py``):

* the batched vectorised executor is **byte-identical** to the scalar
  loop oracle in ``tests/oracles/workload.py`` (CrossbarMemory /
  SecdedCode per access) — read values, final stored state, and every
  per-instance metric;
* results are invariant to ``chunk_size``;
* trace generators are pure functions of their arguments.
"""

import hashlib

import numpy as np
import pytest

from repro.codes import make_code
from repro.crossbar.defects import DefectMap
from repro.crossbar.ecc import EccError, SecdedCode, decode_blocks, encode_blocks
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
        for r in range(2, 9):
            code = SecdedCode(parity_bits=r)
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
            for row, data, pos in zip(blocks, decoded, corrected):
                if errors == 2:
                    with pytest.raises(EccError):
                        code.decode(row)
                else:
                    expect, expect_pos = code.decode(row)
                    assert np.array_equal(data, expect)
                    assert pos == expect_pos


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
        for r in (2, 3, 6, 7):
            fleet = small_fleet(ecc=SecdedCode(parity_bits=r))
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


# -- pinned ECC result bytes ---------------------------------------------------

#: Platform of the ECC goldens: big enough for a few dozen 128-bit
#: blocks per instance.
GOLDEN_SPEC = CrossbarSpec(raw_kilobytes=2)

#: ``parity_bits -> write error rate``: each rate leaves single, double
#: and overall-parity-only errors in the stored blocks.
GOLDEN_RATES = {2: 0.08, 3: 0.04, 6: 0.012, 7: 0.01}

#: sha256 of every array of :func:`ecc_golden_run`'s result, per
#: ``parity_bits``.  r = 7 is the two-word (128-bit) block.
ECC_GOLDEN_DIGESTS = {
    2: """
read_bits bb26d14a64df2a98098d11f636cc9d5d50cb775f3bb644c25be3b8c54d351eab
final_state e9ae2b8cc32a53cc60e99c225c045c3bf8b16a8161bae5ab6083367bd477dfdb
corrected bc890322b0b3c8b6c37d3438f85a1f0bc175da0471deee166d3c5958ff9901ff
effective_capacity_bits c35ee208911bff85422b7b9db46060c73c3ad82eb1d77a2e5471ac1466cc4d40
efficiency 4f3fc8b597f92f00ac84f9d5832777d4e8e82d4ddc872df61d60e9f297ec730d
failure_rate d5d837de43e03613e87b4df1eff1880de90db43959b02f1479aff1d770b22e1f
failures 9e5a67648e69babe55b695905426e36bdb7a6ae1f744abb4bb2f53492abd210e
first_failure_index 5ade306501a99c9bce85685ccda1d54bcb6941a71cd744d90b5e16e435730f69
uncorrectable 9faf9a0e1e06ba9f4f8627557f857b8a3d22152f518f96da3c5621779f231a1b
""",
    3: """
read_bits 3bced7844df34ecc21b9ad6c2dbc8b9402cb735fc0f7f4b29014d697d59a2873
final_state b011380a3156cde2555e953fb53e517a257a7d869ef4867a4979ec2965d459c8
corrected 402cbea20e23da28e9136c7855e34c3195a4115da31ad5c41f718e045adb4965
effective_capacity_bits 79f6362d7d023f38be83f552da5ab203d2c5f72ed94eec607e4a936e2f5472d2
efficiency 3e896b6ef3563389d5371c05289d2bff986de612efa79bf364e373f2ec350af0
failure_rate 0cd15e3496166119b10bc5276c7d4201efe23a6693c981266d3f52c3d70c0402
failures 8818256bfeec1fdf3190a3f9fc88a1de11cf858d8a60425afcebdf5ed3fe17c9
first_failure_index d282d372221f54dac33fd6eb733ea0e2c9dbbf708eff62e03a0af267fc8adf8d
uncorrectable af1e6e717ace983462249582b4e9c9063695bf2bc46ef28c697f71a95d5102c5
""",
    6: """
read_bits 95874cf9695fece587140123708b0a68eb553df9c8a27cf9dcce88182ca0c389
final_state df2c5f542f9c3c2ff5ddfd7aebf8973f17a14e083748a32ab7a0c306701d58a3
corrected 24c9f70d501acf2b01ac8357ad7f3e659640857331ce60beba911def3349d984
effective_capacity_bits 34954f4ea8cc30fe483492449f5445c7c7df4a680c0cb3ce42f0b3584bdd3167
efficiency 976941749fd6e08512e60cb69d4321037b5ac1f37ffe7da9ad9ae3a4776fa773
failure_rate 80ba6b44c50b4be1002f9d8121cf35dcbe66c0da97963209847826de34bd6c98
failures bae171236b5b274934620fe19a114a0e117040fb2b84cf55dfb3f94f1ff801c6
first_failure_index a775012d2ec0b4d72bae8c6c2b3ead64e83beeefc5a7cab02dd02d3fd5576777
uncorrectable a6e5efe1e58097433b6fe9e0dedc303851b46543e35bd0652e0c66c62919642e
""",
    7: """
read_bits d381ddf73bd48edc6deeb110df5f12f64b74fab6ea3b2766be4a6845930f38bd
final_state a318ea1f6195e546c1f2df9343c93503afb7b8e10ed0f067912217e38b25610b
corrected 1a2978e0c6c956d51daab9520b7e5153f34eb4a5548e1bc4a2e855849e177970
effective_capacity_bits da66cfb8f734711113764c4316edccca5663cc36c62c90d1a4d8152664330498
efficiency 59332333d924cde0a882fac7556f3646d6dcf02582d866656d86ba45bffb6200
failure_rate 2fa38e91ce167a790fd1944f81735e17eb038995216888ea951dd4b2dd025a30
failures 636297b983ad7a50b2bdc43524dd16e8dbeb7d45640c69aed8aa008dc608b9f9
first_failure_index 650743ce0256062a7c92e21e79b216020524d971c19a7cc1ffdd0239889b053a
uncorrectable 0ca6e73614bd058ce83d1f15f1f332c4db5afd8e7f14db8792af726cf0b35e62
""",
}


def ecc_golden_run(r):
    """Ideal ECC run with write errors and an address space above capacity."""
    fleet = MemoryFleet.sample(GOLDEN_SPEC, CODE, 8, seed=21, ecc=SecdedCode(r))
    trace = make_trace("uniform", 3000, fleet.suggested_address_space() + 4, seed=22)
    result = fleet.run(
        trace,
        chunk_size=389,
        seed=23,
        write_error_rate=GOLDEN_RATES[r],
        collect_reads=True,
        collect_state=True,
    )
    return fleet, result


def result_digests(result) -> dict[str, str]:
    """sha256 of the dtype, shape and bytes of every result array."""

    def sha(a):
        a = np.ascontiguousarray(a)
        head = repr((a.dtype.str, a.shape)).encode()
        return hashlib.sha256(head + a.tobytes()).hexdigest()

    out = {"read_bits": sha(result.read_bits), "final_state": sha(result.final_state)}
    for name in sorted(result.per_instance):
        out[name] = sha(result.per_instance[name])
    return out


class TestEccGolden:
    """Exact bytes of ideal SECDED runs, not only agreement with the oracle."""

    @pytest.mark.parametrize("r", sorted(ECC_GOLDEN_DIGESTS))
    def test_result_bytes_pinned(self, r):
        _, result = ecc_golden_run(r)
        expected = dict(
            line.split() for line in ECC_GOLDEN_DIGESTS[r].split("\n") if line
        )
        assert result_digests(result) == expected

    @pytest.mark.parametrize("r", sorted(ECC_GOLDEN_DIGESTS))
    def test_covers_every_error_class(self, r):
        """The pinned runs hold single, double and parity-only errors."""
        fleet, result = ecc_golden_run(r)
        bb = fleet.ecc.block_bits
        stored = np.concatenate(
            [
                result.final_state[i][cells[: cells.size // bb * bb]].reshape(-1, bb)
                for i, cells in enumerate(fleet._remaps)
            ]
        )
        _, corrected, uncorrectable = decode_blocks(fleet.ecc, stored)
        assert (corrected > 0).any()
        assert (corrected == 0).any()
        assert uncorrectable.any()
        assert result.per_instance["failures"].sum() > 0


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
