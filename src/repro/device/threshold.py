"""Threshold-voltage level placement and addressability windows (Sec. 6.1).

The platform distributes the ``n`` threshold-voltage levels "within the
range 0 to 1 V, in order to account for a maximum supply voltage of 1 V",
and declares a nanowire addressable "if VT at every doping region varies
within a small range" (after the paper's reference [2]).

Levels are placed at the centres of ``n`` equal sub-bands of the supply
range, so every level has the same guard band on both sides; the
addressability window is that guard band scaled by a calibration margin
(the exact numeric window of [2] is not reprinted in the paper; the
margin is calibrated in :mod:`repro.analysis.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LevelError(ValueError):
    """Raised for inconsistent level-scheme parameters."""


@dataclass(frozen=True)
class LevelScheme:
    """Placement of ``n`` VT levels in the supply range with a sense window.

    Parameters
    ----------
    n:
        Logic valence (number of VT levels).
    vt_min, vt_max:
        Supply range bounds [V]; defaults to the paper's 0..1 V.
    window_margin:
        Fraction of the half-spacing used as the addressability window
        half-width.  ``1.0`` means the windows of adjacent levels touch;
        smaller values model the sensing guard band of [2].
    """

    n: int
    vt_min: float = 0.0
    vt_max: float = 1.0
    window_margin: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise LevelError(f"need at least two levels, got n={self.n}")
        if self.vt_max <= self.vt_min:
            raise LevelError("vt_max must exceed vt_min")
        if not 0.0 < self.window_margin <= 1.0:
            raise LevelError(
                f"window_margin must be in (0, 1], got {self.window_margin}"
            )

    @property
    def spacing(self) -> float:
        """Width of one level sub-band [V]."""
        return (self.vt_max - self.vt_min) / self.n

    @property
    def levels(self) -> tuple[float, ...]:
        """Nominal VT of each digit, centred in its sub-band [V]."""
        return tuple(self.vt_min + (v + 0.5) * self.spacing for v in range(self.n))

    @property
    def window_halfwidth(self) -> float:
        """Addressability window half-width around each nominal VT [V]."""
        return self.window_margin * self.spacing / 2.0

    def window(self, digit: int) -> tuple[float, float]:
        """(low, high) addressable VT bounds for ``digit`` [V]."""
        if not 0 <= digit < self.n:
            raise LevelError(f"digit {digit} out of range for n={self.n}")
        centre = self.levels[digit]
        return centre - self.window_halfwidth, centre + self.window_halfwidth

    def classify(self, vt: np.ndarray) -> np.ndarray:
        """Digit whose window contains each VT, or -1 if out of all windows.

        Used by the Monte-Carlo simulator to decide whether a sampled
        region still reads as its intended level.
        """
        vt = np.asarray(vt, dtype=float)
        levels = np.asarray(self.levels)
        idx = np.abs(vt[..., None] - levels[None, :]).argmin(axis=-1)
        nearest = levels[idx]
        ok = np.abs(vt - nearest) <= self.window_halfwidth
        return np.where(ok, idx, -1)
