"""Unit tests for repro.crossbar.readout — sneak paths and margins."""

import numpy as np
import pytest

from repro.crossbar.readout import (
    ReadoutError,
    ReadoutModel,
    margin_vs_bank_size,
    max_bank_size,
)


@pytest.fixture
def model():
    return ReadoutModel(r_on=1e5, r_off=1e7, v_read=0.5, scheme="float")


class TestConstruction:
    def test_rejects_bad_resistances(self):
        with pytest.raises(ReadoutError):
            ReadoutModel(r_on=0)
        with pytest.raises(ReadoutError):
            ReadoutModel(r_on=1e6, r_off=1e5)

    def test_rejects_bad_scheme(self):
        with pytest.raises(ReadoutError):
            ReadoutModel(scheme="weird")

    def test_rejects_bad_voltage(self):
        with pytest.raises(ReadoutError):
            ReadoutModel(v_read=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_on": float("nan")},
            {"r_off": float("nan")},
            {"v_read": float("nan")},
            {"v_read": float("inf")},
            {"r_on": float("inf"), "r_off": float("inf")},
        ],
    )
    def test_rejects_non_finite_technology(self, kwargs):
        """Regression: NaN/inf used to pass and yield all-NaN margins."""
        with pytest.raises(ReadoutError, match="finite"):
            ReadoutModel(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"r_on": float("nan")}, {"v_read": float("inf")}, {"r_on": 1e8}],
    )
    def test_margin_sweep_checks_raw_technology(self, kwargs):
        """The engine sweep takes raw floats, so it checks them itself."""
        from repro.sim.readout import scheme_margin_sweep

        with pytest.raises(ReadoutError):
            scheme_margin_sweep((4,), **kwargs)


class TestSingleCell:
    def test_isolated_cell_is_ohms_law(self, model):
        states = np.array([[True]])
        i = model.read_current(states, 0, 0)
        assert i == pytest.approx(model.v_read / model.r_on, rel=1e-9)

    def test_off_cell_current(self, model):
        states = np.array([[False]])
        i = model.read_current(states, 0, 0)
        assert i == pytest.approx(model.v_read / model.r_off, rel=1e-9)

    def test_selection_bounds(self, model):
        with pytest.raises(ReadoutError):
            model.read_current(np.ones((2, 2), bool), 2, 0)


class TestGroundedScheme:
    def test_ground_scheme_isolates_cell(self):
        """With all unselected lines grounded there is no sneak current."""
        model = ReadoutModel(scheme="ground")
        big = np.ones((16, 16), dtype=bool)
        i_on = model.read_current(big, 3, 5)
        assert i_on == pytest.approx(model.v_read / model.r_on, rel=1e-6)

        big[3, 5] = False
        i_off = model.read_current(big, 3, 5)
        assert i_off == pytest.approx(model.v_read / model.r_off, rel=1e-6)

    def test_ground_margin_size_independent(self):
        model = ReadoutModel(scheme="ground")
        m4 = model.sense_margin(4, 4)
        m32 = model.sense_margin(32, 32)
        assert m4 == pytest.approx(m32, rel=1e-6)


class TestFloatingScheme:
    def test_sneak_inflates_off_current(self, model):
        """A selected OFF cell reads high because of sneak paths."""
        states = np.ones((8, 8), dtype=bool)
        states[0, 0] = False
        i_off = model.read_current(states, 0, 0)
        isolated_off = model.v_read / model.r_off
        assert i_off > 5 * isolated_off

    def test_margin_degrades_with_size(self, model):
        margins = [m for _, m in margin_vs_bank_size(model, (2, 4, 8, 16, 32))]
        assert all(b < a for a, b in zip(margins, margins[1:]))

    def test_grounded_beats_both_floating_schemes(self):
        ground = ReadoutModel(scheme="ground").sense_margin(16, 16)
        floating = ReadoutModel(scheme="float").sense_margin(16, 16)
        half_v = ReadoutModel(scheme="half_v").sense_margin(16, 16)
        assert ground > floating
        assert ground > half_v

    def test_half_v_adds_column_pedestal(self):
        """V/2 biasing drives a constant pedestal current through the
        selected column's half-selected cells, raising the OFF read."""
        states = np.ones((16, 16), dtype=bool)
        states[0, 0] = False
        floating = ReadoutModel(scheme="float").read_current(states, 0, 0)
        half_v = ReadoutModel(scheme="half_v").read_current(states, 0, 0)
        assert half_v > floating

    def test_sneak_path_scaling_matches_theory(self, model):
        """For an all-ON n x n array the sneak resistance is the classic
        three-segment series R/(n-1) + R/(n-1)^2 + R/(n-1)."""
        n = 16
        r = model.r_on
        sneak = 2 * r / (n - 1) + r / (n - 1) ** 2
        expected_current = model.v_read * (1 / r + 1 / sneak)
        i_on = model.read_current(np.ones((n, n), bool), 0, 0)
        assert i_on == pytest.approx(expected_current, rel=0.05)


class TestMarginHelpers:
    def test_worst_case_ordering(self, model):
        i_on, i_off = model.worst_case_currents(8, 8)
        assert i_on > i_off > 0

    def test_max_bank_size_monotone_in_floor(self, model):
        large = max_bank_size(model, min_margin=0.2)
        small = max_bank_size(model, min_margin=0.8)
        assert large >= small

    def test_max_bank_size_respects_floor(self, model):
        size = max_bank_size(model, min_margin=0.5)
        assert size >= 2
        assert model.sense_margin(size, size) >= 0.5

    def test_rejects_bad_floor(self, model):
        with pytest.raises(ReadoutError):
            max_bank_size(model, min_margin=0.0)

    def test_rejects_empty_bank(self, model):
        with pytest.raises(ReadoutError):
            model.sense_margin(0, 4)

    def test_cave_sized_banks_beat_monolithic_arrays(self, model):
        """Why arrays are segmented: a half-cave-sized bank (20 wires)
        keeps several times the floating-scheme margin of a large bank."""
        cave = model.sense_margin(20, 20)
        monolithic = model.sense_margin(64, 64)
        assert cave > 3 * monolithic
