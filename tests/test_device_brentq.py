"""The in-tree Brent port inverts VT -> doping with scipy's exact bits.

``repro.device.physics._brentq`` replaces ``scipy.optimize.brentq`` so
that ``import repro`` does not load ``scipy.optimize``.  It must return
the same float as scipy for every VT the model can reach, or every
doping level (and every digest built from one) would move.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.device.physics import (
    DOPING_MAX,
    DOPING_MIN,
    DigitDopingMap,
    PhysicsError,
    ThresholdModel,
    _brentq,
)
from repro.device.threshold import LevelScheme

MODEL = ThresholdModel()


def _scipy_doping(vt: float) -> float:
    return brentq(lambda na: MODEL.vt_from_doping(na) - vt, DOPING_MIN, DOPING_MAX)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestBitIdenticalToScipy:
    def test_dense_vt_grid_over_the_achievable_range(self):
        lo, hi = MODEL.vt_range()
        grid = np.linspace(lo, hi, 10_001)
        sampled = np.random.default_rng(21).uniform(lo, hi, 10_000)
        vts = np.concatenate([grid, sampled])
        ours = [MODEL.doping_from_vt(vt) for vt in vts]
        theirs = [_scipy_doping(vt) for vt in vts]
        assert np.array_equal(_bits(ours), _bits(theirs))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("margin", [0.5, 0.9, 1.0])
    def test_every_level_scheme_level(self, n, margin):
        levels = LevelScheme(n, window_margin=margin).levels
        ours = DigitDopingMap(levels).doping_levels()
        theirs = [_scipy_doping(vt) for vt in levels]
        assert [float(x).hex() for x in ours] == [x.hex() for x in theirs]

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x * x - 1.0, 0.0, 2.0),
            (lambda x: np.cos(x) - x, -1.5, 4.0),
            (lambda x: x**3 - 2.0 * x - 5.0, 0.1, 3.0),
            (lambda x: np.exp(x) - 10.0, -1.5, 4.0),
            (lambda x: x - 0.25, 0.25, 1.0),  # root on the bracket end
        ],
    )
    def test_generic_functions(self, f, a, b):
        assert _brentq(f, a, b).hex() == float(brentq(f, a, b)).hex()

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)


class TestOutOfRange:
    @pytest.mark.parametrize("offset", [-1e-3, 1e-3])
    def test_vt_outside_the_achievable_range_raises(self, offset):
        lo, hi = MODEL.vt_range()
        vt = lo + offset if offset < 0 else hi + offset
        expected = (
            f"VT {vt:.3f} V outside achievable range "
            f"[{lo:.3f}, {hi:.3f}] V for this gate stack"
        )
        with pytest.raises(PhysicsError) as exc:
            MODEL.doping_from_vt(vt)
        assert str(exc.value) == expected

    def test_nan_vt_raises(self):
        with pytest.raises(PhysicsError, match="outside achievable range"):
            MODEL.doping_from_vt(float("nan"))
