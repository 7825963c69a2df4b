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
    memory_batch,
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


# -- write-error flips ---------------------------------------------------------


class TestFlipStream:
    """The geometric-gap sampler keeps the per-bit Bernoulli law."""

    @pytest.mark.parametrize("p, bits", [(1e-3, 4000), (0.08, 200), (0.5, 64)])
    def test_flip_count_is_binomial(self, p, bits):
        """Counts of consecutive ``bits``-bit writes against Binomial
        (bits, p): a chi-square test at a fixed seed, tails pooled so
        every bin expects at least 5 writes."""
        from scipy import stats

        writes = 2000
        stream = memory_batch._FlipStream(np.random.default_rng(17), p)
        counts = np.array([stream.take(bits).size for _ in range(writes)])
        law = stats.binom(bits, p)
        lo, hi = int(law.ppf(0.01)), int(law.ppf(0.99))
        inner = np.arange(lo + 1, hi)
        observed = [(counts <= lo).sum()]
        observed += [(counts == k).sum() for k in inner]
        observed += [(counts >= hi).sum()]
        expected = np.r_[law.cdf(lo), law.pmf(inner), law.sf(hi - 1)] * writes
        assert expected.min() >= 5
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 1e-3

    def test_rate_one_flips_every_bit(self):
        stream = memory_batch._FlipStream(np.random.default_rng(3), 1.0)
        assert np.array_equal(stream.take(1000), np.arange(1000))
        assert np.array_equal(stream.take(17), np.arange(17))

    def test_rate_zero_draws_nothing(self, monkeypatch):
        assert memory_batch._flip_streams(3, 4, 0.0) == [None] * 4

        def no_streams(*args):
            raise AssertionError("an error stream was built at rate 0")

        monkeypatch.setattr(memory_batch, "_error_streams", no_streams)
        fleet = small_fleet()
        trace = make_trace("uniform", 500, fleet.suggested_address_space(), seed=1)
        clean = fleet.run(trace, seed=4, collect_state=True)
        assert clean.final_state.any()


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
read_bits 171bcdfe75d37c50c3d05f4a5ed78e7dd4c01cf7c0f60003207921fd696e0577
final_state c0f9ae79abc211a25fcb3cb04a0061e228434896655bc32379085e5c5f1eb8eb
corrected a6fe359f85b269a31a6e5aad63701824a577972f109cae2b3c72881a45532bda
effective_capacity_bits 298c07d29e675032c8099cc687f5fa5da6f20cfab5e0327822d73a40664e2734
efficiency fbaea83e6db5b0ba2f4b86e85eef3e680812033ca802444e05842ec46d20c21f
failure_rate e75ccdf3d23885acfd2b0ad89116bd796aeefdc81c64773450af37f24ea06a96
failures 1c18db89ca27ba0b32856ac2cbb8c0261c524f007d63571cecf214cece60c5dc
first_failure_index e1cb6d5cb0898e790430854cb13ecf0e09040d4a3e2404113cbd5e5a6a8a5ec6
uncorrectable d2511e69297dbffa73df9fa365319164258cfea66f1b0391956a6fa81a78aa76
""",
    3: """
read_bits 01420aa32ee2152e084f436e01634671f6b53b266ddfcd5679313c8ee5a1d312
final_state de52981ef6e3a68271a6846d796c09f065a47c53f0edc2d429a9e91304510e25
corrected 2080c2a582bfc23a44282446c625b760134209769854f7abdaf4135b6a9648ba
effective_capacity_bits b12ef811473278e99806bb5aead5ae4356a6d0c0b45fd1f41c331517959140a6
efficiency 7745d17572fb418cefdd9d738775165e6828ca47a0e72c72eef15e7af1bd57e1
failure_rate 771f23a0d6c718247f7de0e8ac9b8825c0687a9a370a0586e8205e83164b0234
failures 7509103ca9718035ba72b9a2c21726698fd104342ef48d3a6298b00fb4e26f72
first_failure_index 2b339c8f83b9d00adef6320968f0ea874144b67e89cec5b52dbd009e27c36694
uncorrectable 6062340d647227fd594132ed55fb881684acef4ae186e0126a1ef6581f25b442
""",
    6: """
read_bits 261405ae589a6631379987cd5d0929ac2c4510142d8816341a3473944698b792
final_state b88a018fb3b24b6554c97a0daa97aa1a5384e89023209e6c856c2acadb0753d0
corrected ee19f83332ed665599b91dd1309a88f0455236c8641bcf3b369a18727fc44e42
effective_capacity_bits 7f2caae7db8375b76eb67ac63b636b2a32d59d7e812721e3aea9f1e84ac6bb3a
efficiency 0540fc9e62f0127bded47edd1024ac02b4aa58a4a14be53fe61b94e24fefc0b4
failure_rate 2cb9c6956f65103e4982066029cd6da1db25761636c5b5d62951108aea6a2459
failures 5fd9fefc86893f56aae806c501d07ca2623f3c23982fd6fddd3daaee12244eec
first_failure_index 69f9b6e976f3fd0e3fac486cf9edf75cfb1008faae65db06726d2473fe1a8661
uncorrectable 6c033e675ddc0557c6953f9b04070c5614ea1da10c1ba73a76ebcd1644da3c01
""",
    7: """
read_bits 17623fb1c5f49108737f726c138526900e0bb3186d98dda55d4d22f07b25803e
final_state 43090d9a07739103a0e20cad7c576318989b67894eede68c1cf814cee6a80654
corrected d82f0e7fb4d50593775b0f20389792b63635ef023331dc45238cd5ff32f74ce4
effective_capacity_bits aa5d49ecc9ccb24e86d77c3867317be18116da02cdfcf4cdcf6f9e42c8801ff6
efficiency 1821be332eac11f0e9abe23a8d0d0605fead079cd4a2e2d1a991c86fab2fcb76
failure_rate 4cda91ff2f43bb5908e6a7879b24ff332304be6e6723bdc2c5cd797ad5f3849b
failures db40b157191387a49c35b951bf09940bbac01d4fe03140f2e740497e950fa681
first_failure_index 50b7da8e2d728a6cc7328d8020a1766fcf58f31e0481f5d100765205b0122206
uncorrectable f386427103922e4616a6f1ed886ea011f775c6de9c6c240ad8c7abac59bcdb7a
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
