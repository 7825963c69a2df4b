"""Unit tests for repro.crossbar.array — the end-to-end integration object."""

import hashlib

import numpy as np
import pytest

from repro.codes import make_code
from repro.crossbar.array import AddressingFault, CrossbarArray
from repro.crossbar.readout import ReadoutModel


@pytest.fixture(scope="module")
def array():
    from repro.crossbar.spec import CrossbarSpec

    return CrossbarArray(CrossbarSpec(), make_code("BGC", 2, 10), seed=42)


def accessible_cell(array, start_row=0, start_col=0):
    rows, cols = array.shape
    for r in range(start_row, rows):
        for c in range(start_col, cols):
            if array.is_accessible(r, c):
                return r, c
    raise AssertionError("no accessible crosspoint found")


def inaccessible_row(array):
    for r in range(array.shape[0]):
        if not array.defects.row_ok[r]:
            return r
    raise AssertionError("no defective row in this sample")


class TestConstruction:
    def test_shape_matches_spec(self, array):
        assert array.shape == (363, 363)

    def test_summary(self, array):
        s = array.summary()
        assert 0 < s["accessible_fraction"] <= 1
        assert s["bank_wires"] == 40
        assert s["readout_scheme"] == "float"

    def test_rejects_non_readout_model(self):
        """The array senses through ReadoutModel alone; another model
        object used to pass here and break summary() later."""
        from types import SimpleNamespace

        from repro.crossbar.spec import CrossbarSpec

        with pytest.raises(TypeError, match="ReadoutModel"):
            CrossbarArray(
                CrossbarSpec(raw_kilobytes=0.2),
                make_code("TC", 2, 6),
                readout=SimpleNamespace(scheme="float", v_read=0.5),
            )


class TestAddressing:
    def test_access_to_defective_row_raises(self, array):
        r = inaccessible_row(array)
        c = accessible_cell(array)[1]
        with pytest.raises(AddressingFault, match=f"^row wire {r} is not addressable$"):
            array.write_bit(r, c, True)

    def test_out_of_range_raises(self, array):
        with pytest.raises(AddressingFault):
            array.read_bit(9999, 0)

    def test_is_accessible_bounds(self, array):
        assert not array.is_accessible(-1, 0)
        assert not array.is_accessible(0, 99999)


class TestElectricalBitAccess:
    def test_bit_roundtrip_through_readout(self, array):
        r, c = accessible_cell(array)
        array.write_bit(r, c, True)
        assert array.read_bit(r, c) is True
        array.write_bit(r, c, False)
        assert array.read_bit(r, c) is False

    def test_roundtrip_with_busy_background(self, array, rng):
        """Reads stay correct with the surrounding bank full of ONes —
        the worst sneak-path scenario the threshold is designed for."""
        r, c = accessible_cell(array)
        r0 = (r // 40) * 40
        c0 = (c // 40) * 40
        rows, cols, bits = [], [], []
        for i in range(r0, min(r0 + 40, array.shape[0])):
            for j in range(c0, min(c0 + 40, array.shape[1])):
                rows.append(i)
                cols.append(j)
                bits.append(True)
        array.write_pattern(np.array(rows), np.array(cols), np.array(bits))

        if array.is_accessible(r, c):
            array.write_bit(r, c, False)
            assert array.read_bit(r, c) is False
            array.write_bit(r, c, True)
            assert array.read_bit(r, c) is True

    def test_read_margin_positive_and_background_dependent(self, array):
        r, c = accessible_cell(array)
        r0 = (r // 40) * 40
        c0 = (c // 40) * 40
        rows, cols = np.meshgrid(
            np.arange(r0, min(r0 + 40, array.shape[0])),
            np.arange(c0, min(c0 + 40, array.shape[1])),
        )
        # quiet bank: everything OFF (the fixture is shared, so reset)
        array.write_pattern(rows, cols, np.zeros_like(rows, dtype=bool))
        quiet = array.read_margin(r, c)
        assert quiet > 0
        # busy bank: the sneak pedestal shrinks the margin
        array.write_pattern(rows, cols, np.ones_like(rows, dtype=bool))
        busy = array.read_margin(r, c)
        assert 0 < busy < quiet

    def test_grounded_scheme_also_works(self):
        from repro.crossbar.spec import CrossbarSpec

        quiet = CrossbarArray(
            CrossbarSpec(),
            make_code("BGC", 2, 10),
            seed=7,
            readout=ReadoutModel(scheme="ground"),
        )
        r, c = accessible_cell(quiet)
        quiet.write_bit(r, c, True)
        assert quiet.read_bit(r, c) is True


class TestWritePattern:
    def test_skips_inaccessible(self, array, rng):
        rows = np.arange(50)
        cols = np.arange(50)
        bits = np.ones(50, dtype=bool)
        written = array.write_pattern(rows, cols, bits)
        accessible = sum(
            1 for r, c in zip(rows, cols) if array.is_accessible(int(r), int(c))
        )
        assert written == accessible

    def test_shape_mismatch_raises(self, array):
        with pytest.raises(ValueError):
            array.write_pattern(np.arange(3), np.arange(2), np.ones(3, bool))

    def test_duplicate_crosspoints_last_write_wins(self, array, rng):
        """Regression: duplicate-index scatter must keep the *last*
        write per crosspoint, not whatever NumPy fancy-assignment
        happens to apply (satellite bugfix)."""
        base = [accessible_cell(array, start_row=k) for k in (0, 5, 11)]
        idx = rng.integers(0, len(base), size=40)
        rows = np.array([base[i][0] for i in idx])
        cols = np.array([base[i][1] for i in idx])
        bits = rng.random(40) < 0.5
        written = array.write_pattern(rows, cols, bits)
        assert written == 40
        expected = {}
        for r, c, b in zip(rows, cols, bits):
            expected[(int(r), int(c))] = bool(b)
        for (r, c), b in expected.items():
            assert array.stored_bit(r, c) == b

    def test_alternating_duplicates_settle_on_last(self, array):
        r, c = accessible_cell(array)
        n = 9
        assert (
            array.write_pattern(
                np.full(n, r), np.full(n, c), np.arange(n) % 2 == 0
            )
            == n
        )
        assert array.stored_bit(r, c) is True  # last bit: index 8, even


class TestReferenceCurrentGuards:
    """Regression: read_bit and read_bits must both reject a
    non-positive reference current, like read_margin(s) always did
    (satellite bugfix).  The array takes a real ReadoutModel; the
    stacked solver underneath is patched to return zero currents."""

    @pytest.fixture
    def dead(self, monkeypatch):
        import repro.crossbar.array as array_module
        from repro.crossbar.spec import CrossbarSpec

        # every read, one cell or a batch, senses through this one
        # paired call: (forced-ON, forced-OFF) rows of currents
        monkeypatch.setattr(
            array_module,
            "sense_currents",
            lambda g, rows, *rest, **which: np.zeros((2, len(rows))),
        )
        return CrossbarArray(
            CrossbarSpec(raw_kilobytes=0.2), make_code("TC", 2, 6), seed=3
        )

    def test_read_bit_rejects_nonpositive_reference(self, dead):
        r, c = accessible_cell(dead)
        with pytest.raises(AddressingFault, match="non-positive reference"):
            dead.read_bit(r, c)

    def test_read_bits_rejects_nonpositive_reference(self, dead):
        r, c = accessible_cell(dead)
        with pytest.raises(AddressingFault, match="non-positive reference"):
            dead.read_bits([r], [c])

    def test_read_margin_paths_reject_nonpositive_reference(self, dead):
        r, c = accessible_cell(dead)
        with pytest.raises(AddressingFault, match="non-positive reference"):
            dead.read_margin(r, c)
        with pytest.raises(AddressingFault, match="non-positive reference"):
            dead.read_margins([r], [c])


def sha(a):
    """sha256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    head = repr((a.dtype.str, a.shape)).encode()
    return hashlib.sha256(head + a.tobytes()).hexdigest()


def seeded_array(kilobytes, family, length, scheme):
    """Seeded array with a random data background on every crosspoint."""
    from repro.crossbar.spec import CrossbarSpec

    arr = CrossbarArray(
        CrossbarSpec(raw_kilobytes=kilobytes),
        make_code(family, 2, length),
        seed=3,
        readout=ReadoutModel(scheme=scheme),
    )
    side = arr.shape[0]
    rows, cols = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    bits = np.random.default_rng(11).random(side * side) < 0.5
    arr.write_pattern(rows.ravel(), cols.ravel(), bits)
    return arr


class TestReadDigests:
    """Exact bits of the array's reads, one cell at a time and batched.

    Both tables were recorded on the defect maps of the v2 result bytes
    (one uniform per wire), the float margins with the v3 factor-once
    kernel; ``test_batched_equals_per_cell`` ties the batched reads to
    the per-cell ones bit for bit."""

    #: scheme -> (read_bit sha256, read_margin sha256); every accessible
    #: cell of a 41-wire TC M=6 array (289 cells), row-major
    CELL = {
        "float": (
            "6ac1724650f7587f5726055aa7972446b28fdbacdaaa2a325890c3801ca9f0bc",
            "5ff3930c2e98db5e1ca33c8e208c97b0c9a550877bd22e3549a2406bca866f06",
        ),
        "ground": (
            "6ac1724650f7587f5726055aa7972446b28fdbacdaaa2a325890c3801ca9f0bc",
            "521fba450a5fbd23f0236e73a624b26ee6380ea51991920e1b5037f9fa6344ff",
        ),
        "half_v": (
            "6ac1724650f7587f5726055aa7972446b28fdbacdaaa2a325890c3801ca9f0bc",
            "e8640c0bd22d98a52a0d96a445c0afe78577046a025398c01bd7c57d9536832c",
        ),
    }
    #: scheme -> (read_bits sha256, read_margins sha256); 2,400 distinct
    #: accessible cells of a 91-wire BGC M=10 array (40-wire banks).  The
    #: margins are those of per-cell read_margin calls
    BATCH = {
        "float": (
            "1dec19a6531023a7354f10c7e8bd924716d9fe022939c45801c53570315eff84",
            "ce262dccfd665550dca4b85fbfdad76132f0e56ac726a654ec185b1cbfc6d6ad",
        ),
        "ground": (
            "1dec19a6531023a7354f10c7e8bd924716d9fe022939c45801c53570315eff84",
            "3a17432d2ace80b94d8c9218e38bf6f765a790ddd325cd7b014e2b6f0dcbdbe8",
        ),
        "half_v": (
            "1dec19a6531023a7354f10c7e8bd924716d9fe022939c45801c53570315eff84",
            "ff2e1325dc6e516dd1c4429056330b0fe1fd7986a18c7dbf795a1521fe962711",
        ),
    }

    @staticmethod
    def accessible(arr):
        return np.nonzero(np.outer(arr.defects.row_ok, arr.defects.col_ok))

    @pytest.mark.parametrize("scheme", sorted(CELL))
    def test_per_cell_reads(self, scheme):
        arr = seeded_array(0.2, "TC", 6, scheme)
        rr, cc = self.accessible(arr)
        assert rr.size == 289
        cells = list(zip(rr.tolist(), cc.tolist()))
        bits = np.array([arr.read_bit(r, c) for r, c in cells])
        margins = np.array([arr.read_margin(r, c) for r, c in cells])
        assert (sha(bits), sha(margins)) == self.CELL[scheme]

    def batch(self, scheme):
        arr = seeded_array(1.0, "BGC", 10, scheme)
        rr, cc = self.accessible(arr)
        pick = np.random.default_rng(5).choice(rr.size, size=2400, replace=False)
        return arr, rr[pick], cc[pick]

    @pytest.mark.parametrize("scheme", sorted(BATCH))
    def test_batched_reads(self, scheme):
        arr, rows, cols = self.batch(scheme)
        bits = arr.read_bits(rows, cols)
        margins = arr.read_margins(rows, cols)
        assert (sha(bits), sha(margins)) == self.BATCH[scheme]

    @pytest.mark.parametrize("scheme", sorted(BATCH))
    def test_batched_equals_per_cell(self, scheme):
        """A batch reads the same floats as its cells read one at a time."""
        arr, rows, cols = self.batch(scheme)
        cells = list(zip(rows.tolist(), cols.tolist()))
        bits = np.array([arr.read_bit(r, c) for r, c in cells])
        margins = np.array([arr.read_margin(r, c) for r, c in cells])
        assert np.array_equal(arr.read_bits(rows, cols), bits)
        assert np.array_equal(
            arr.read_margins(rows, cols).view(np.uint64), margins.view(np.uint64)
        )


class TestFleetDefectInjection:
    def test_injected_defects_are_used(self):
        from repro.crossbar.defects import DefectMap
        from repro.crossbar.spec import CrossbarSpec

        spec = CrossbarSpec(raw_kilobytes=0.2)
        side = spec.side_nanowires
        row_ok = np.ones(side, dtype=bool)
        row_ok[0] = False
        dm = DefectMap(row_ok=row_ok, col_ok=np.ones(side, dtype=bool))
        arr = CrossbarArray(spec, make_code("TC", 2, 6), defects=dm)
        assert not arr.is_accessible(0, 0)
        assert arr.is_accessible(1, 0)

    def test_shape_mismatch_rejected(self):
        from repro.crossbar.defects import DefectMap
        from repro.crossbar.spec import CrossbarSpec

        dm = DefectMap(
            row_ok=np.ones(4, dtype=bool), col_ok=np.ones(4, dtype=bool)
        )
        with pytest.raises(ValueError, match="does not match"):
            CrossbarArray(CrossbarSpec(raw_kilobytes=0.2), make_code("TC", 2, 6), defects=dm)
