"""Tests for the electrical workload read mode (repro.workload.electrical).

Covers the tentpole contracts of the trace→sneak-path coupling:

* byte identity with the per-access loop oracle in
  ``tests/oracles/workload.py`` (raw and ECC, with and without write
  errors) on metrics, read values, margins and final state;
* chunk-size invariance of everything except cache diagnostics;
* seeded goldens pinning the misread/margin figures;
* state-keyed bank-cache behaviour (hits on quiescent traffic, LRU
  bound, loop path reporting no cache);
* Sherman-Morrison rank-1 reference updates against re-stamped banks;
* resolution semantics (0 = ideal sensing, misreads are one-sided).
"""

import numpy as np
import pytest

from repro.codes.registry import make_code
from repro.crossbar.ecc import SecdedCode
from repro.crossbar.readout import ReadoutError, ReadoutModel
from repro.crossbar.spec import CrossbarSpec
from repro.sim.readout import DistributedBank, IdealBank
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

    def test_loop_model_method_byte_identical(self):
        """A scalar-stamping readout model runs both engines identically."""
        fleet, trace = small_fleet(accesses=60, seed=4)
        ro = ElectricalReadout(model=LoopReadoutModel(), resolution=0.5)
        batched = fleet.run(trace, chunk_size=19, readout=ro, **COLLECT)
        loop = run_fleet_loop(fleet, trace, readout=ro, **COLLECT)
        assert_equal_runs(batched, loop)

    def test_chunk_size_invariance(self):
        fleet, trace = small_fleet()
        ro = ElectricalReadout(resolution=0.55)
        runs = [
            fleet.run(trace, chunk_size=cs, readout=ro, **COLLECT)
            for cs in (16, 37, 1000)
        ]
        assert_equal_runs(runs[0], runs[1])
        assert_equal_runs(runs[0], runs[2])

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


class TestShermanMorrison:
    def toggled_vs_restamped(self, bank_cls, scheme, **kwargs):
        rng = np.random.default_rng(12)
        model = ReadoutModel(scheme=scheme)
        states = rng.random((9, 9)) < 0.5
        g = model.conductances(states)
        bank = bank_cls(g, **kwargs)
        cells = np.stack([rng.integers(9, size=14), rng.integers(9, size=14)], axis=1)
        measured = bank.read_currents(scheme, model.v_read, cells)
        delta = (1.0 / model.r_on - 1.0 / model.r_off) * np.where(
            states[cells[:, 0], cells[:, 1]], -1.0, 1.0
        )
        updated = bank.toggled_currents(
            scheme, model.v_read, cells, measured, delta
        )
        fresh = np.empty(len(cells))
        for k, (r, c) in enumerate(cells):
            flipped = states.copy()
            flipped[r, c] = not flipped[r, c]
            fresh[k] = bank_cls(model.conductances(flipped), **kwargs).read_currents(
                scheme, model.v_read, [(int(r), int(c))]
            )[0]
        return updated, fresh

    @pytest.mark.parametrize("scheme", ("float", "ground", "half_v"))
    def test_ideal_matches_restamped(self, scheme):
        """The rank-1 closed form equals a full re-stamp, per scheme."""
        updated, fresh = self.toggled_vs_restamped(IdealBank, scheme)
        assert np.allclose(updated, fresh, rtol=1e-9)

    def test_distributed_float_matches_restamped(self):
        updated, fresh = self.toggled_vs_restamped(
            DistributedBank, "float", row_segment_g=2.0e4, col_segment_g=2.0e4
        )
        assert np.allclose(updated, fresh, rtol=1e-6)

    def test_distributed_biased_schemes_rejected(self):
        bank = DistributedBank(np.full((3, 3), 1e-6), 1.0e4, 1.0e4)
        measured = bank.read_currents("ground", 0.5, [(0, 0)])
        with pytest.raises(ReadoutError):
            bank.toggled_currents("ground", 0.5, [(0, 0)], measured, np.array([1e-7]))

    def test_array_dual_reference_uses_rank1(self):
        """read_bits agrees with scalar sensing on a live array (SM path)."""
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
        assert array.bank_cache_stats()["misses"] > 0
