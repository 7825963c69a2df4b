"""Tests for the electrical workload read mode (repro.workload.electrical).

Covers the tentpole contracts of the trace→sneak-path coupling:

* byte identity with the per-access loop oracle in
  ``tests/oracles/workload.py`` (raw and ECC, with and without write
  errors) on metrics, read values, margins and final state;
* chunk-size invariance of everything except cache diagnostics;
* seeded goldens pinning the misread/margin figures;
* state-keyed bank-cache behaviour (hits on quiescent traffic, LRU
  bound, loop path reporting no cache);
* CrossbarArray batched reads against its one-cell reads;
* resolution semantics (0 = ideal sensing, misreads are one-sided).
"""

import hashlib

import numpy as np
import pytest

from repro.api import WorkloadRequest
from repro.codes.registry import make_code
from repro.crossbar.ecc import SecdedCode
from repro.crossbar.readout import ReadoutError, ReadoutModel
from repro.crossbar.spec import CrossbarSpec
from repro.workload import ELECTRICAL_METRICS, ElectricalReadout, prepare_workload
from tests.oracles.readout import LoopReadoutModel
from tests.oracles.workload import run_fleet_loop

SPEC = CrossbarSpec(raw_kilobytes=0.2)
SPACE = make_code("TC", 2, 6)


def small_fleet(accesses=160, instances=2, seed=5, write_fraction=0.5, ecc=None):
    return prepare_workload(
        SPEC,
        SPACE,
        trace="zipfian",
        accesses=accesses,
        instances=instances,
        seed=seed,
        write_fraction=write_fraction,
        ecc=ecc,
    )


def assert_equal_runs(a, b, *, compare_cache=False):
    """Byte-identity of two electrical runs (cache stats excluded)."""
    assert set(a.per_instance) == set(b.per_instance)
    for name in a.per_instance:
        assert np.array_equal(a.per_instance[name], b.per_instance[name]), name
    assert np.array_equal(a.read_bits, b.read_bits)
    assert np.array_equal(a.final_state, b.final_state)
    assert np.array_equal(a.margins, b.margins, equal_nan=True)
    assert np.array_equal(a.margin_hist, b.margin_hist)
    assert np.array_equal(a.margin_edges, b.margin_edges)
    if compare_cache:
        assert a.cache == b.cache


COLLECT = dict(collect_reads=True, collect_state=True, collect_margins=True)

#: ``name sha256`` of every result array of the two golden runs
#: (``array_digests``); the margin arrays re-recorded with the v3
#: factor-once kernel (read bits and counts unchanged).
ENGINE_BATCH_DIGESTS = """
margins d6a4566c67c608e0b3b6e2ec019be64d86c7172ca078edae3da3c91157d3e4e7
read_bits e2945d1857c0f08a78522ab3a94e73a54106aed651400fb9968f9892c9f5704f
final_state 95d20b90fe1a5fa6eb6ce8fed57a4c10677bf034bc74e1c45773ed5efc32e3bf
corrected 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
ecc_masked_misread_rate bbce8ef5c163b80b0189031f43dffdaaebacd527a569769465710fb360e507b5
ecc_masked_misreads 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
effective_capacity_bits 6b2203d0e0e86d6734de8913e752f699f48d66a4c9fd33a51289ca028a600192
efficiency 9adeb6d173ba219f2d2f3161a59630d7182b1c02be4ea682c4b555b734283ae9
failure_rate 808d92a7780454d0cc6ebb46a20a0c3f2f1f35d6785ece9220c0179a095fe746
failures b25abca327eab0283f182efb9d985aeccf50a2c08b5e96c8e750ede033281b75
first_failure_index 56df0dcbdaabf3c60a81d97d2a7c59547a1bbebeeb808f1378b3bd47eab6fe02
margin_mean 8a92e5539aa366414ebccf34ce27b1dc898996e4809e54191eafebc4feb4b2c6
margin_min 8329ac0e2958844efffa18f3c589a9681c11361a8fc205a4eb0025f062cfaec0
misread_bits 169d6c106f61385fbb772185a0e5f7db088ac7159f39818121b49cdcd41bf2a9
misread_rate 2846b588b0262d5a0e02b10fe3eb3b3b1bb1b5458c7ca95928bfcf47c9a31949
misread_reads 169d6c106f61385fbb772185a0e5f7db088ac7159f39818121b49cdcd41bf2a9
sensed_bits 04d556d19c1055894805a5cdea80a69f55b094849cd149a5a78eb496bdb7ce83
uncorrectable 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
"""
SECDED_DIGESTS = """
margins 3abc49c60990d56939b2714c8a5e4f0002f3a87e5b89673791bd4bf53a785dca
read_bits 6e22e34cda3a1a267d65a0b467284241acf82efc978c87ba041469e2f2b8777e
final_state 1fbf8d7565a06745144260f6f309a746104111a5c0f78d00f6ab1701bae1c150
corrected 27ade71fd365c48c2eecf56d4dc8eb8d35eea95a990229a2f210be91bebd2110
ecc_masked_misread_rate a6b2c08aad842fce9313f3f41c43f1e1f98bd9115aca27177bdd83013cd78972
ecc_masked_misreads fe7f68061082fb7293bee06586c7e1cdeade6f32b2c52186b35e4935e97d375d
effective_capacity_bits 2183691fc0c640a3719c32729564596b6da55f6875f0bcc676f79eccd8581521
efficiency 500d4a268ddf052615ed8d850fce1bb76d16930627c1df53be81ce2d976184b2
failure_rate bbce8ef5c163b80b0189031f43dffdaaebacd527a569769465710fb360e507b5
failures 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
first_failure_index a5ec9ecffa241be344346a60667a417574b612e1aa570a27011a385754a07c7d
margin_mean 446d4620248ef6e84c9de016b77d66d0de37e643acebde09df8d78bc675d58e6
margin_min e47f2a628ed161e8eb6b7bc107cf18c6e1896bba796326872e06b6c3f46552db
misread_bits 7fc9f587bb1cfeba7b621e6fba951919bba37b40f8ea07d56c4038e03830b55d
misread_rate 52cde530d526e3bbc3f280421d2ab0724f4987f325db3ebe2180c2cb1d40c631
misread_reads bcd18dcb67521e17e41ee33ab2f762665683cbe5cc68379cb0f6ba76b312cfd7
sensed_bits 4cf238a13f9e7a117993b614c2d822ae1f1762751f5aaa9195584f4795b9afb6
uncorrectable 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
"""


class TestLoopEquivalence:
    def test_raw_mode_byte_identical(self):
        fleet, trace = small_fleet()
        ro = ElectricalReadout(resolution=0.55)
        batched = fleet.run(trace, chunk_size=37, readout=ro, **COLLECT)
        loop = run_fleet_loop(fleet, trace, space=SPACE, readout=ro, **COLLECT)
        assert_equal_runs(batched, loop)
        assert batched.electrical and loop.electrical
        assert batched.cache is not None
        assert loop.cache is None

    def test_ecc_mode_with_write_errors_byte_identical(self):
        fleet, trace = small_fleet(accesses=80, seed=7, ecc=SecdedCode(3))
        ro = ElectricalReadout(resolution=0.6)
        kw = dict(readout=ro, write_error_rate=0.05, seed=11, **COLLECT)
        batched = fleet.run(trace, chunk_size=17, **kw)
        loop = run_fleet_loop(fleet, trace, space=SPACE, **kw)
        assert_equal_runs(batched, loop)
        # the run actually exercised ECC repair and masking
        assert int(batched.per_instance["misread_bits"].sum()) > 0
        assert int(batched.per_instance["ecc_masked_misreads"].sum()) > 0

    def test_half_v_scheme_byte_identical(self):
        fleet, trace = small_fleet(accesses=100, seed=2)
        ro = ElectricalReadout(model=ReadoutModel(scheme="half_v"), resolution=0.4)
        batched = fleet.run(trace, chunk_size=29, readout=ro, **COLLECT)
        loop = run_fleet_loop(fleet, trace, space=SPACE, readout=ro, **COLLECT)
        assert_equal_runs(batched, loop)

    def test_ground_scheme_byte_identical(self):
        fleet, trace = small_fleet(accesses=100, seed=8)
        ro = ElectricalReadout(model=ReadoutModel(scheme="ground"), resolution=0.4)
        batched = fleet.run(trace, chunk_size=23, readout=ro, **COLLECT)
        loop = run_fleet_loop(fleet, trace, space=SPACE, readout=ro, **COLLECT)
        assert_equal_runs(batched, loop)

    @pytest.mark.parametrize("ecc", (None, SecdedCode(3)), ids=("raw", "secded"))
    @pytest.mark.parametrize("scheme", ("float", "ground", "half_v"))
    def test_loop_oracle_byte_identical(self, scheme, ecc):
        """The stacked engine against the per-cell stamping loop oracle."""
        fleet, trace = small_fleet(accesses=60, seed=4, ecc=ecc)
        batched = fleet.run(
            trace,
            chunk_size=19,
            readout=ElectricalReadout(ReadoutModel(scheme=scheme), resolution=0.5),
            **COLLECT,
        )
        loop = run_fleet_loop(
            fleet,
            trace,
            space=SPACE,
            readout=ElectricalReadout(LoopReadoutModel(scheme=scheme), resolution=0.5),
            **COLLECT,
        )
        assert_equal_runs(batched, loop)

    def test_rejects_non_readout_model(self):
        from types import SimpleNamespace

        with pytest.raises(TypeError, match="ReadoutModel"):
            ElectricalReadout(model=SimpleNamespace(scheme="float", v_read=0.5))

    def test_chunk_size_invariance(self):
        fleet, trace = small_fleet()
        ro = ElectricalReadout(resolution=0.55)
        runs = [
            fleet.run(trace, chunk_size=cs, readout=ro, **COLLECT)
            for cs in (16, 37, 1000)
        ]
        assert_equal_runs(runs[0], runs[1])
        assert_equal_runs(runs[0], runs[2])

    def test_thread_width_invariance(self, monkeypatch):
        """Instances on one thread or two: same results, same cache counts."""
        import repro.sim.batch as batch

        fleet, trace = small_fleet(accesses=200, instances=3, seed=6)
        ro = ElectricalReadout(resolution=0.55, max_banks=8)
        runs = []
        for width in (1, 2):
            monkeypatch.setattr(batch, "usable_cpus", lambda width=width: width)
            runs.append(fleet.run(trace, chunk_size=64, readout=ro, **COLLECT))
        assert_equal_runs(runs[0], runs[1], compare_cache=True)
        assert runs[0].cache["evictions"] > 0

    def test_rejects_unknown_method(self):
        # the scalar executor is a test oracle now, not a method knob
        fleet, trace = small_fleet(accesses=10)
        with pytest.raises(TypeError):
            fleet.run(trace, method="loop", readout=ElectricalReadout())


class TestSeededGolden:
    def test_misread_and_margin_figures(self):
        """Pinned figures of one seeded run (regression anchor)."""
        fleet, trace = small_fleet(accesses=120, seed=9)
        r = fleet.run(
            trace,
            readout=ElectricalReadout(resolution=0.55),
            collect_reads=True,
        )
        assert trace.reads == 59 and trace.writes == 61
        assert r.per_instance["sensed_bits"].tolist() == [58, 59]
        assert r.per_instance["misread_bits"].tolist() == [0, 2]
        assert r.per_instance["misread_reads"].tolist() == [0, 2]
        assert r.per_instance["failures"].tolist() == [4, 0]
        assert r.read_bits.sum(axis=1).tolist() == [14, 12]
        assert r.per_instance["margin_min"][0] == pytest.approx(
            0.5766149868695888, rel=1e-12
        )
        assert r.per_instance["margin_mean"][0] == pytest.approx(
            0.7500423206864404, rel=1e-12
        )
        assert r.margin_hist[0].tolist() == [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 7, 12, 23, 11, 0, 0, 0,
        ]
        assert all(name in r.per_instance for name in ELECTRICAL_METRICS)
        assert all(name in r.summary for name in ELECTRICAL_METRICS)


def array_digests(result) -> dict[str, str]:
    """sha256 of the dtype, shape and bytes of every result array."""

    def sha(a):
        a = np.ascontiguousarray(a)
        head = repr((a.dtype.str, a.shape)).encode()
        return hashlib.sha256(head + a.tobytes()).hexdigest()

    out = {
        "margins": sha(result.margins),
        "read_bits": sha(result.read_bits),
        "final_state": sha(result.final_state),
    }
    for name in sorted(result.per_instance):
        out[name] = sha(result.per_instance[name])
    return out


def digest_table(text: str) -> dict[str, str]:
    """``{name: sha256}`` from ``name sha256`` lines."""
    return dict(line.split() for line in text.split("\n") if line)


def engine_batch_run(max_banks=ElectricalReadout().max_banks):
    """The engine-batch electrical request: TC M=6, 1,024 x 2, float."""
    req = WorkloadRequest(
        "TC", 6, accesses=1024, instances=2, readout="float", resolution=0.55, seed=7
    )
    fleet, trace = prepare_workload(
        req.spec,
        make_code(req.family, req.n, req.total_length),
        trace=req.trace,
        accesses=req.accesses,
        instances=req.instances,
        seed=req.seed,
        write_fraction=req.write_fraction,
    )
    ro = ElectricalReadout(resolution=req.resolution, max_banks=max_banks)
    return fleet.run(trace, seed=req.seed, readout=ro, **COLLECT)


def secded_run():
    """SECDED electrical run with write errors, misreads and repairs."""
    fleet, trace = small_fleet(accesses=300, seed=13, ecc=SecdedCode(3))
    ro = ElectricalReadout(resolution=0.6)
    return fleet.run(trace, readout=ro, write_error_rate=0.05, seed=11, **COLLECT)


class TestExactBitsGolden:
    """Exact bits, not tolerances: any change of solve arithmetic shows."""

    def test_engine_batch_request(self):
        assert array_digests(engine_batch_run()) == digest_table(ENGINE_BATCH_DIGESTS)

    def test_secded_with_write_errors(self):
        r = secded_run()
        assert int(r.per_instance["misread_bits"].sum()) > 0
        assert int(r.per_instance["corrected"].sum()) > 0
        assert array_digests(r) == digest_table(SECDED_DIGESTS)


class TestBankCache:
    def test_quiescent_trace_hits(self):
        """Read-only traffic re-reads cached bank states every chunk."""
        fleet, trace = small_fleet(accesses=200, seed=3, write_fraction=0.0)
        r = fleet.run(trace, chunk_size=50, readout=ElectricalReadout())
        assert r.cache["hits"] > 0
        assert r.cache["hit_rate"] > 0.0
        assert r.cache["banks"] <= ElectricalReadout().max_banks

    def test_lru_bound_evicts(self):
        fleet, trace = small_fleet(accesses=120, seed=9)
        ro = ElectricalReadout(resolution=0.55, max_banks=4)
        r = fleet.run(trace, readout=ro)
        assert r.cache["banks"] <= 4
        assert r.cache["evictions"] > 0

    def test_one_lookup_per_read_cell(self):
        """Both references of a read cell are one lookup; a miss is one
        factorization."""
        r = engine_batch_run(max_banks=1)
        sensed = int(r.per_instance["sensed_bits"].sum())
        assert r.cache["hits"] + r.cache["misses"] == sensed
        assert r.cache["misses"] <= sensed
        assert r.cache["evictions"] > 0

    @pytest.mark.parametrize("chunk_size", (2, 1000))
    def test_unchanged_state_costs_no_factorization(self, chunk_size):
        """Any cell of a bank state the memo holds is a hit; a write that
        changes the bank makes a new state, factored once."""
        from repro.workload.traces import Trace

        fleet, _ = small_fleet(instances=1)
        per = fleet.spec.wires_per_cave
        side = fleet._maps[0].shape[1]
        bank = [
            (cell // side // per, cell % side // per)
            for cell in fleet._remaps[0][:64].tolist()
        ]
        a, b = 0, next(k for k in range(1, 64) if bank[k] == bank[0])
        trace = Trace(
            "same-bank",
            addresses=np.array([a, b, a, a, a, b], dtype=np.int64),
            is_write=np.array([False, False, False, True, False, False]),
            values=np.array([False, False, False, True, False, False]),
            address_space=b + 1,
        )
        r = fleet.run(
            trace,
            chunk_size=chunk_size,
            readout=ElectricalReadout(),
            collect_reads=True,
        )
        assert r.read_bits.tolist() == [[False, False, False, True, False]]
        assert (r.cache["hits"], r.cache["misses"]) == (3, 2)

    def test_tiny_cache_results_unchanged(self):
        """Evictions cost speed, never correctness."""
        fleet, trace = small_fleet(accesses=120, seed=9)
        big = fleet.run(
            trace,
            readout=ElectricalReadout(resolution=0.55),
            **COLLECT,
        )
        tiny = fleet.run(
            trace,
            readout=ElectricalReadout(resolution=0.55, max_banks=2),
            **COLLECT,
        )
        assert_equal_runs(big, tiny)


class TestResolution:
    def test_zero_resolution_never_misreads(self):
        fleet, trace = small_fleet(accesses=150, seed=6)
        r = fleet.run(trace, readout=ElectricalReadout())
        assert int(r.per_instance["misread_bits"].sum()) == 0
        assert int(r.per_instance["misread_reads"].sum()) == 0

    def test_high_resolution_misreads(self):
        fleet, trace = small_fleet(accesses=150, seed=6)
        r = fleet.run(trace, readout=ElectricalReadout(resolution=0.8))
        assert int(r.per_instance["misread_bits"].sum()) > 0

    def test_misreads_are_one_sided(self):
        """Sneak paths only hide stored ONs; a stored OFF never reads ON."""
        fleet, trace = small_fleet(accesses=150, seed=6)
        ideal = fleet.run(trace, readout=ElectricalReadout(), collect_reads=True)
        lossy = fleet.run(
            trace,
            readout=ElectricalReadout(resolution=0.8),
            collect_reads=True,
        )
        assert not np.any(lossy.read_bits & ~ideal.read_bits)

    def test_validation(self):
        with pytest.raises(ReadoutError):
            ElectricalReadout(resolution=1.0)
        with pytest.raises(ReadoutError):
            ElectricalReadout(resolution=-0.1)
        with pytest.raises(ReadoutError):
            ElectricalReadout(margin_bins=0)
        with pytest.raises(ReadoutError):
            ElectricalReadout(max_banks=0)

    def test_requires_spec_and_space(self):
        from repro.workload import MemoryFleet

        fleet, trace = small_fleet(accesses=10)
        bare = MemoryFleet(fleet._maps)
        with pytest.raises(ValueError, match="sampled with a spec"):
            bare.run(trace, readout=ElectricalReadout())
        with pytest.raises(TypeError, match="ElectricalReadout"):
            fleet.run(trace, readout=ReadoutModel())

    def test_ideal_run_unchanged_without_readout(self):
        """readout=None keeps the ideal engine's result shape."""
        fleet, trace = small_fleet(accesses=40)
        r = fleet.run(trace)
        assert not r.electrical
        assert r.cache is None and r.margins is None
        assert "misread_bits" not in r.per_instance


class TestArrayDualReference:
    def test_batched_matches_scalar(self):
        """read_bits agrees with one-cell sensing on a live array."""
        from repro.crossbar.array import CrossbarArray

        array = CrossbarArray(SPEC, SPACE, seed=3)
        rng = np.random.default_rng(3)
        side = array.shape[0]
        rows, cols = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        array.write_pattern(rows.ravel(), cols.ravel(), rng.random(side * side) < 0.5)
        cells = [
            (r, c)
            for r in range(side)
            for c in range(side)
            if array.is_accessible(r, c)
        ][:18]
        rr = np.array([r for r, _ in cells])
        cc = np.array([c for _, c in cells])
        batched = array.read_bits(rr, cc)
        scalar = [array.read_bit(int(r), int(c)) for r, c in cells]
        assert list(batched) == scalar
