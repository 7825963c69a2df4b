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
#: (``array_digests``), recorded before the slab-stacked solves replaced
#: the per-cell ones.
ENGINE_BATCH_DIGESTS = """
margins aec38d1a111c6d4e68e16dd1baff7fd97f4d0ba51fb1b08708e56e1f845c613f
read_bits f5aa31b9d4876bf39ee4d3f54bf14f138ac3b723611aa5a1aa13991cdce8a605
final_state bd750505ad7e41df08a4c15979d904f52ca3d40b730e220465873472a74544de
corrected 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
ecc_masked_misread_rate bbce8ef5c163b80b0189031f43dffdaaebacd527a569769465710fb360e507b5
ecc_masked_misreads 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
effective_capacity_bits 51f7e31187d2998da462ad48d5f9026c2de27c3374574fec5761a94e68e35e3f
efficiency efc8e1c452e1049e104c732f807eda1dbbdfa0a6fed8937576c11bd071a8cd50
failure_rate 3636a680fcfaad13c6b30ab803f2cba1ce0f497bd3e6771bca1a14c23babc30a
failures 9ef706f761dee3f590be2a1dae7eb0989787d99bdd9e57398179d5c59fad5e9e
first_failure_index d941d914bf7ab79fff208de8071f59cd29897e55ef1c2f49b7efcddf253c0dee
margin_mean f0751031cf9de4f62e51ee3862d887b81748826bfbf16688a5b4ac9bebf88dd3
margin_min 9b467b6c4f36417d87bbc5625052abe453fda2e2c36b0f86a07368afd044e0c1
misread_bits 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
misread_rate bbce8ef5c163b80b0189031f43dffdaaebacd527a569769465710fb360e507b5
misread_reads 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
sensed_bits 8ffc94eaf2d1283795199693f73f20263b9ff4372f9ccb70cbbcb064bcb62e39
uncorrectable 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
"""
SECDED_DIGESTS = """
margins 2fae404352c84f32a69900ec43d5d041f583dd7046e200687cd757381262c864
read_bits f1451037ba8fb898ee0e336f583b874f50e5494b88fa99cc738fbdab97b31be4
final_state ef44aa71fa110dffb300edae20b436093d02e76c25a5f5550ec49d7355a38e4c
corrected 084dc5f8492c4ad6e520aca8f6b345eb13ace18d4cbdb6b147a17d8e97802bf6
ecc_masked_misread_rate 87f49193c00e8f3f8a15bb75ef6530ea4fbb5116f0d290fdac74ad3dc85d871e
ecc_masked_misreads 2d620e2f808c22156acbaa16fb75f8d6d258c48655616f1961a26bf44a94423c
effective_capacity_bits 92d0d65b52f6a1c51558ba6d072f06cf51e35252ed1d2675243afb53d40f32d9
efficiency d64b80bd022c4295debdd8685d2151810174d2c10a8ee67658e7fb9e6075e5be
failure_rate 310d05d082afdd95a1053a2bd9fa3735f2f937869dd5a68800ab9a70898d11be
failures 4c36b554a23c3ac1f42ae7c11429cbb19dd2fa24a7eed989dc170cfa441ce1af
first_failure_index 3f93b62e1b373f562787a6027630f48634cdcf4f4f271ccada2b988583d4b913
margin_mean 5c86561f1a91d80b335fb68ce5dec36b61bd81019c415b06877c080dbfe768c2
margin_min 24a05c8ecd2eb49823de4bb33a81e5229f093268685f0f62c96d080f88c14109
misread_bits 03ddaa70a03b4e750f33d93e7bc3187be4fb5c629395bb5a278c4e83bcdc9dc7
misread_rate 8a2a7357915cbdb92e1878e443852e5fd46062a833e0b026352f2dc4199e5433
misread_reads eac6a05ef7b5c263f870cad5ec546616f8a6c15ad2a11c85ee71e25feaf6f3f5
sensed_bits f0c65f28bb21690e5920abec887c170f05da626098db2ef9393a1bce171c4318
uncorrectable 72cdae40b0d99e6f9f1d77ccd0a32bc5eec2bc4fe0e762591880fb98095b4d94
"""


class TestLoopEquivalence:
    def test_raw_mode_byte_identical(self):
        fleet, trace = small_fleet()
        ro = ElectricalReadout(resolution=0.55)
        batched = fleet.run(trace, chunk_size=37, readout=ro, **COLLECT)
        loop = run_fleet_loop(fleet, trace, readout=ro, **COLLECT)
        assert_equal_runs(batched, loop)
        assert batched.electrical and loop.electrical
        assert batched.cache is not None
        assert loop.cache is None

    def test_ecc_mode_with_write_errors_byte_identical(self):
        fleet, trace = small_fleet(accesses=80, seed=7, ecc=SecdedCode(3))
        ro = ElectricalReadout(resolution=0.6)
        kw = dict(readout=ro, write_error_rate=0.05, seed=11, **COLLECT)
        batched = fleet.run(trace, chunk_size=17, **kw)
        loop = run_fleet_loop(fleet, trace, **kw)
        assert_equal_runs(batched, loop)
        # the run actually exercised ECC repair and masking
        assert int(batched.per_instance["misread_bits"].sum()) > 0
        assert int(batched.per_instance["ecc_masked_misreads"].sum()) > 0

    def test_half_v_scheme_byte_identical(self):
        fleet, trace = small_fleet(accesses=100, seed=2)
        ro = ElectricalReadout(model=ReadoutModel(scheme="half_v"), resolution=0.4)
        batched = fleet.run(trace, chunk_size=29, readout=ro, **COLLECT)
        loop = run_fleet_loop(fleet, trace, readout=ro, **COLLECT)
        assert_equal_runs(batched, loop)

    def test_ground_scheme_byte_identical(self):
        fleet, trace = small_fleet(accesses=100, seed=8)
        ro = ElectricalReadout(model=ReadoutModel(scheme="ground"), resolution=0.4)
        batched = fleet.run(trace, chunk_size=23, readout=ro, **COLLECT)
        loop = run_fleet_loop(fleet, trace, readout=ro, **COLLECT)
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
        assert r.per_instance["sensed_bits"].tolist() == [59, 56]
        assert r.per_instance["misread_bits"].tolist() == [2, 2]
        assert r.per_instance["misread_reads"].tolist() == [2, 2]
        assert r.per_instance["failures"].tolist() == [0, 8]
        assert r.read_bits.sum(axis=1).tolist() == [12, 12]
        assert r.per_instance["margin_min"][0] == pytest.approx(
            0.4858407193181311, rel=1e-12
        )
        assert r.per_instance["margin_mean"][0] == pytest.approx(
            0.7270465247433778, rel=1e-12
        )
        assert r.margin_hist[0].tolist() == [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 10, 8, 11, 17, 11, 0, 0, 0,
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


def engine_batch_run():
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
    ro = ElectricalReadout(resolution=req.resolution)
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
        with pytest.raises(ValueError, match="spec/space"):
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
