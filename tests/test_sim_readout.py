"""Tests for the batched readout engine (repro.sim.readout).

Covers the contracts of the one crossbar read solver, ``sense_currents``:

* bit-for-bit equivalence with the scalar kernel loop oracle
  (``tests/oracles/readout.py``) across schemes and bank shapes, one
  pair at a time and stacked;
* the paired call (forced-ON and forced-OFF references from one
  factorization) against single-state reads;
* agreement within 1e-12 with the per-cell LAPACK solves it replaced,
  and the exact-split subset sums against ``math.fsum``;
* seeded goldens for the ``readout`` sweep evaluator;
* the batched CrossbarArray read paths against their one-cell reads
  and the loop oracle's dual-reference sensing;
* the state-keyed bank cache of the electrical workload engine.
"""

import numpy as np
import pytest

from repro.crossbar.readout import (
    SCHEMES,
    ReadoutError,
    ReadoutModel,
    margin_vs_bank_size,
    max_bank_size,
)
from repro.sim.readout import (
    BankCache,
    scheme_margin_sweep,
    sense_currents,
    state_digest,
    subset_sums,
)
from tests.oracles.readout import (
    LoopReadoutModel,
    dual_reference,
    lapack_sense_currents,
)

SHAPES = ((1, 1), (3, 5), (8, 8), (5, 12))


def random_states(shape, seed=0, density=0.5):
    return np.random.default_rng(seed).random(shape) < density


class TestIdealEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_single_cell_byte_identical(self, scheme, shape):
        """The batched dense path reproduces the scalar loop bit for bit."""
        states = random_states(shape, seed=hash(shape) % 1000)
        loop = LoopReadoutModel(scheme=scheme)
        batched = ReadoutModel(scheme=scheme)
        rng = np.random.default_rng(1)
        for _ in range(4):
            row = int(rng.integers(shape[0]))
            col = int(rng.integers(shape[1]))
            assert loop.read_current(states, row, col) == batched.read_current(
                states, row, col
            )

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shape", SHAPES + ((1, 6), (6, 1), (40, 40)))
    def test_stacked_kernel_bit_identical(self, scheme, shape):
        """One slab of mixed states and cells equals the scalar loop per pair."""
        rng = np.random.default_rng(sum(shape))
        k = 7
        states = rng.random((k, *shape)) < 0.5
        rows = rng.integers(shape[0], size=k)
        cols = rng.integers(shape[1], size=k)
        loop = LoopReadoutModel(scheme=scheme)
        g = np.stack([loop.conductances(st) for st in states])
        got = sense_currents(g, rows, cols, scheme, loop.v_read)
        want = np.array(
            [
                loop.read_current(st, int(r), int(c))
                for st, r, c in zip(states, rows, cols)
            ]
        )
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_stacked_kernel_rejects_unknown_scheme(self):
        with pytest.raises(ReadoutError, match="unknown scheme"):
            sense_currents(np.ones((1, 2, 2)), [0], [0], "open", 0.5)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_margin_sweep_byte_identical(self, scheme):
        sizes = (2, 4, 8, 16)
        loop = margin_vs_bank_size(LoopReadoutModel(scheme=scheme), sizes)
        batched = margin_vs_bank_size(ReadoutModel(scheme=scheme), sizes)
        assert loop == batched

    def test_loop_margins_never_call_the_product_solver(self, monkeypatch):
        """The oracle's margins come from its own loop, not sense_currents."""
        import repro.sim.readout as engine

        def product_solver(*args, **kwargs):
            raise AssertionError("loop oracle reached sense_currents")

        monkeypatch.setattr(engine, "sense_currents", product_solver)
        for scheme in SCHEMES:
            assert 0 < LoopReadoutModel(scheme=scheme).sense_margin(4, 4) < 1

    def test_scheme_margin_sweep_matches_models(self):
        sizes = (2, 4, 8)
        sweep = scheme_margin_sweep(sizes)
        for scheme in SCHEMES:
            loop = LoopReadoutModel(scheme=scheme)
            assert sweep[scheme] == [loop.sense_margin(s, s) for s in sizes]

    def test_max_bank_size_method_independent(self):
        loop = LoopReadoutModel()
        batched = ReadoutModel()
        assert max_bank_size(loop, 0.2) == max_bank_size(batched, 0.2)

    def test_rejects_unknown_method(self):
        # the loop reference is a test oracle now, not a model field
        with pytest.raises(TypeError):
            ReadoutModel(method="loop")

    def test_rejects_bad_sweep_size(self):
        with pytest.raises(ReadoutError):
            scheme_margin_sweep((4, 0))


def corner_and_interior_cells(shape):
    rows, cols = shape
    corners = {(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)}
    return sorted(corners | {(rows // 2, cols // 2)})


class TestPairedReferences:
    """One paired call against single-state reads.

    ``ground`` / ``half_v`` fix every line, so both references equal two
    ``read_current`` calls bit for bit.  A ``float`` pair comes from one
    factorization of the bank as stored: the reference whose forced
    state is the stored bit equals ``read_current`` of the bank bit for
    bit, and the other equals ``read_current`` of the forced bank (the
    same circuit, factored from the other state) within 1e-12 of the
    read's ON current."""

    @pytest.mark.parametrize("background", ("random", "all_on", "all_off"))
    @pytest.mark.parametrize("shape", ((1, 1), (1, 6), (6, 1), (7, 5), (40, 40)))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_pair_equals_two_read_currents(self, scheme, shape, background):
        states = {
            "random": random_states(shape, seed=sum(shape)),
            "all_on": np.ones(shape, dtype=bool),
            "all_off": np.zeros(shape, dtype=bool),
        }[background]
        model = ReadoutModel(scheme=scheme)
        cells = corner_and_interior_cells(shape)
        rows, cols = zip(*cells)
        g = np.stack([model.conductances(states)] * len(cells))
        i_on, i_off = sense_currents(
            g, rows, cols, scheme, model.v_read, model.reference_conductances
        )
        want_on, want_off = [], []
        for r, c in cells:
            forced = states.copy()
            forced[r, c] = True
            want_on.append(model.read_current(forced, r, c))
            forced[r, c] = False
            want_off.append(model.read_current(forced, r, c))
        want_on, want_off = np.array(want_on), np.array(want_off)
        if scheme != "float":
            assert i_on.tobytes() == want_on.tobytes()
            assert i_off.tobytes() == want_off.tobytes()
            return
        own = np.where(states[rows, cols], i_on, i_off)
        unforced = [model.read_current(states, r, c) for r, c in cells]
        assert own.tobytes() == np.array(unforced).tobytes()
        assert np.all(np.abs(i_on - want_on) <= 1e-12 * want_on)
        assert np.all(np.abs(i_off - want_off) <= 1e-12 * want_on)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_worst_case_currents_equal_two_read_currents(self, scheme):
        model = ReadoutModel(scheme=scheme)
        background = np.ones((7, 5), dtype=bool)
        i_on = model.read_current(background, 0, 0)
        background[0, 0] = False
        i_off = model.read_current(background, 0, 0)
        pair = np.array(model.worst_case_currents(7, 5))
        if scheme != "float":
            assert pair.tobytes() == np.array([i_on, i_off]).tobytes()
            return
        # the all-ON bank is the one factored: its own read is exact
        assert pair[0] == i_on
        assert abs(pair[1] - i_off) <= 1e-12 * i_on


class TestLapackTolerance:
    """The factor-once kernel against the per-cell LAPACK solves it replaced.

    Currents agree within 1e-12 of the read's ON reference current (the
    sense amplifier's full scale; an OFF reference whose sneak current
    is tiny carries the ON current's rounding) and margins within 1e-12
    relative, across bank shapes, backgrounds and ON/OFF ratios from 2 to
    1e6 (the exact split's dynamic range)."""

    @pytest.mark.parametrize("ratio", (2.0, 1.0e2, 1.0e4, 1.0e6))
    @pytest.mark.parametrize(
        "shape", ((1, 1), (1, 6), (6, 1), (7, 5), (40, 40), (64, 64))
    )
    def test_currents_and_margins(self, shape, ratio):
        model = ReadoutModel(r_on=1.0e5, r_off=1.0e5 * ratio)
        banks = (
            random_states(shape, seed=sum(shape)),
            np.ones(shape, dtype=bool),
            np.zeros(shape, dtype=bool),
        )
        cells = corner_and_interior_cells(shape)
        rows, cols = (np.tile(a, len(banks)) for a in zip(*cells))
        which = np.repeat(np.arange(len(banks)), len(cells))
        g = np.stack([model.conductances(b) for b in banks])
        refs = model.reference_conductances
        got = sense_currents(g, rows, cols, "float", model.v_read, refs, which=which)
        want = lapack_sense_currents(g[which], rows, cols, "float", model.v_read, refs)
        assert np.all(np.abs(got - want) <= 1e-12 * want[0])
        got_m = (got[0] - got[1]) / got[0]
        want_m = (want[0] - want[1]) / want[0]
        assert np.all(np.abs(got_m - want_m) <= 1e-12 * want_m)


class TestSubsetSums:
    """The exact-split Gram sums are the correctly rounded subset sums."""

    @pytest.mark.parametrize("n_rows", (1, 7, 40, 64))
    @pytest.mark.parametrize("ratio", (2.0, 1.0e6))
    def test_equal_fsum_bit_for_bit(self, n_rows, ratio):
        import math

        rng = np.random.default_rng(n_rows)
        on = rng.random((3, n_rows, 9)) < 0.5
        g = np.where(on, 1.0e-5, 1.0e-5 / ratio)
        w = 1.0 / np.cumsum(g, axis=2)[:, :, -1]
        w[0] *= 2.0 ** rng.integers(-20, 21, size=n_rows)  # wider spread too
        patterns = on.astype(float)
        got = subset_sums(patterns, w)
        for s, j, k in np.ndindex(3, 9, 9):
            rows = on[s, :, j] & on[s, :, k]
            assert got[s, j, k] == math.fsum(w[s, rows])

    def test_sums_do_not_depend_on_the_stack(self):
        rng = np.random.default_rng(3)
        patterns = (rng.random((5, 40, 6)) < 0.5).astype(float)
        w = rng.random((5, 40)) * 2.0 ** rng.integers(-30, 30, size=(5, 1))
        alone = [subset_sums(patterns[k : k + 1], w[k : k + 1]) for k in range(5)]
        assert subset_sums(patterns, w).tobytes() == np.concatenate(alone).tobytes()


class TestReadoutEvaluator:
    def run(self, metric="readout", **params):
        from repro.exp.designpoint import DesignPoint
        from repro.exp.pipeline import SweepParams, run_sweep

        points = [
            DesignPoint.make("TC", 6, nanowires=10),
            DesignPoint.make("TC", 6, nanowires=20),
        ]
        return run_sweep(points, metrics=(metric,), params=SweepParams(**params))

    def test_golden_margins(self):
        """Seeded goldens of the readout evaluator (deterministic)."""
        result = self.run()
        records = result.to_records()
        assert [r["ro_bank_wires"] for r in records] == [20, 40]
        assert records[0]["ro_margin_float"] == pytest.approx(0.096525, rel=1e-6)
        assert records[0]["ro_margin_ground"] == pytest.approx(0.99, rel=1e-9)
        assert records[0]["ro_margin_half_v"] == pytest.approx(
            0.0942857142857143, rel=1e-6
        )
        assert records[1]["ro_margin_float"] == pytest.approx(0.04888125, rel=1e-6)
        assert [r["ro_max_float_bank"] for r in records] == [2, 2]
        assert [r["ro_bank_ok"] for r in records] == [False, False]

    def test_margins_match_direct_models(self):
        result = self.run(ro_r_on=1.0e6, ro_r_off=1.0e8)
        record = result.to_records()[0]
        bank = record["ro_bank_wires"]
        for scheme in SCHEMES:
            model = ReadoutModel(r_on=1.0e6, r_off=1.0e8, scheme=scheme)
            assert record[f"ro_margin_{scheme}"] == model.sense_margin(bank, bank)

    def test_jobs_invariance(self):
        from repro.exp.designpoint import DesignPoint
        from repro.exp.pipeline import run_sweep

        points = [DesignPoint.make("TC", 6, nanowires=10)]
        serial = run_sweep(points, metrics=("readout",), jobs=1)
        assert serial.to_records() == run_sweep(
            points, metrics=("readout",), jobs=2
        ).to_records()


class TestArrayBatchedReads:
    def make_array(self, seed=3, scheme="float"):
        from repro.codes.registry import make_code
        from repro.crossbar.array import CrossbarArray
        from repro.crossbar.spec import CrossbarSpec

        spec = CrossbarSpec(raw_kilobytes=0.2)
        space = make_code("TC", 2, 6)
        model = ReadoutModel(scheme=scheme)
        array = CrossbarArray(spec, space, seed=seed, readout=model)
        rng = np.random.default_rng(seed)
        side = array.shape[0]
        rows, cols = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        array.write_pattern(rows.ravel(), cols.ravel(), rng.random(side * side) < 0.5)
        return array

    def accessible_cells(self, array, k=12, seed=4):
        rng = np.random.default_rng(seed)
        side = array.shape[0]
        cells = [
            (r, c)
            for r in range(side)
            for c in range(side)
            if array.is_accessible(r, c)
        ]
        picks = rng.choice(len(cells), size=min(k, len(cells)), replace=True)
        chosen = [cells[p] for p in picks]
        return np.array([r for r, _ in chosen]), np.array([c for _, c in chosen])

    def test_read_bits_matches_scalar(self):
        array = self.make_array()
        rows, cols = self.accessible_cells(array)
        batched = array.read_bits(rows, cols)
        scalar = [array.read_bit(int(r), int(c)) for r, c in zip(rows, cols)]
        assert list(batched) == scalar

    def test_read_margins_matches_scalar(self):
        array = self.make_array()
        rows, cols = self.accessible_cells(array)
        batched = array.read_margins(rows, cols)
        scalar = [array.read_margin(int(r), int(c)) for r, c in zip(rows, cols)]
        assert batched.tolist() == scalar

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reads_match_loop_dual_reference(self, scheme):
        """Batched array reads equal per-cell sensing on the loop solver."""
        array = self.make_array(scheme=scheme)
        rows, cols = self.accessible_cells(array, k=24)
        loop = LoopReadoutModel(scheme=scheme)
        per = array.spec.wires_per_cave
        want = [
            dual_reference(loop, array.raw_state(), per, int(r), int(c))
            for r, c in zip(rows, cols)
        ]
        assert array.read_bits(rows, cols).tolist() == [b for b, _ in want]
        assert array.read_margins(rows, cols).tolist() == [m for _, m in want]

    def test_read_bits_roundtrip(self):
        array = self.make_array()
        rows, cols = self.accessible_cells(array, k=20)
        expected = array._states[rows, cols]
        assert np.array_equal(array.read_bits(rows, cols), expected)

    def test_read_bits_rejects_inaccessible(self):
        from repro.crossbar.array import AddressingFault

        array = self.make_array()
        bad = np.nonzero(~array.defects.row_ok)[0]
        if bad.size == 0:
            pytest.skip("sampled instance has no defective rows")
        rows, cols = self.accessible_cells(array, k=2)
        with pytest.raises(AddressingFault):
            array.read_bits(
                np.concatenate([rows, bad[:1]]),
                np.concatenate([cols, [0]]),
            )

    def test_write_pattern_skips_and_counts(self):
        array = self.make_array()
        rows, cols = self.accessible_cells(array, k=6)
        written = array.write_pattern(
            np.concatenate([rows, [-1]]),
            np.concatenate([cols, [0]]),
            np.ones(rows.size + 1, dtype=bool),
        )
        assert written == rows.size
        assert array._states[rows, cols].all()


class TestBankCacheUnit:
    def test_hit_miss_and_lru_eviction(self):
        cache = BankCache(max_banks=2)
        assert cache.get(b"a", lambda: "A") == "A"
        assert cache.get(b"a", lambda: "other") == "A"
        cache.get(b"b", lambda: "B")
        cache.get(b"c", lambda: "C")  # evicts "a", the least recent
        assert cache.get(b"a", lambda: "A*") == "A*"
        assert cache.hits == 1
        assert cache.misses == 4
        assert cache.evictions == 2
        assert len(cache) == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ReadoutError):
            BankCache(max_banks=0)

    def test_state_digest_keys_content_shape_and_dtype(self):
        a = np.zeros((2, 3), dtype=bool)
        assert state_digest(a) == state_digest(a.copy())
        assert state_digest(a) != state_digest(a.reshape(3, 2))
        assert state_digest(a) != state_digest(a.astype(np.int8))
        b = a.copy()
        b[0, 0] = True
        assert state_digest(a) != state_digest(b)

    def test_state_digest_of_views(self):
        """Digesting a non-contiguous bank view matches its dense copy."""
        big = random_states((8, 8), seed=13)
        view = big[2:6, 1:7]
        assert state_digest(view) == state_digest(view.copy())


class TestDegenerateTies:
    """Regression: batched and scalar sensing must agree even when
    R_on/R_off degenerate to (nearly) identical conductances."""

    def run_pair(self, r_off, r_on=1.0e5):
        from repro.codes.registry import make_code
        from repro.crossbar.array import CrossbarArray
        from repro.crossbar.spec import CrossbarSpec

        model = ReadoutModel(r_on=r_on, r_off=r_off)
        spec = CrossbarSpec(raw_kilobytes=0.2)
        space = make_code("TC", 2, 6)
        array = CrossbarArray(spec, space, seed=3, readout=model)
        rng = np.random.default_rng(3)
        side = array.shape[0]
        rows, cols = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        array.write_pattern(rows.ravel(), cols.ravel(), rng.random(side * side) < 0.5)
        cells = [
            (r, c)
            for r in range(side)
            for c in range(side)
            if array.is_accessible(r, c)
        ][:16]
        rr = np.array([r for r, _ in cells])
        cc = np.array([c for _, c in cells])
        batched = array.read_bits(rr, cc)
        scalar = [array.read_bit(int(r), int(c)) for r, c in cells]
        return batched, scalar

    def test_equal_conductance_tie_reads_off(self):
        """R_off > R_on but 1/R_off == 1/R_on: a perfect tie reads 0."""
        pair = None
        for r_on in (1.0e5, 2.3e5, 3.1e5, 4.7e5, 6.1e5):
            r_off = np.nextafter(r_on, np.inf)
            for _ in range(64):
                if 1.0 / r_off == 1.0 / r_on:
                    pair = (r_on, float(r_off))
                    break
                r_off = np.nextafter(r_off, np.inf)
            if pair:
                break
        assert pair is not None, "no double pair with identical reciprocals"
        batched, scalar = self.run_pair(pair[1], r_on=pair[0])
        assert not batched.any()
        assert list(batched) == scalar

    @pytest.mark.parametrize("gap", (1.0 + 1e-12, 1.0 + 1e-9))
    def test_near_degenerate_methods_agree(self, gap):
        batched, scalar = self.run_pair(1.0e5 * gap)
        assert list(batched) == scalar
