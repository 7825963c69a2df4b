"""Crossbar read-out electrical model: sneak paths and sense margins.

The paper's platform assumes the crossbar "functions as a memory"
(Sec. 6.1) with resistive crosspoints (molecular switches or phase-change
material).  Reading a resistive crossbar is limited by *sneak paths*:
with unselected lines floating, parallel current paths through
half-selected cells corrupt the sensed current, and the effect worsens
with array size — one electrical reason real arrays are segmented into
banks the size of the paper's caves.

This module solves the full resistor network by nodal analysis (every
row and column line is a node, every crosspoint a conductance between
its row and column) under three classic biasing schemes:

* ``"float"``   — unselected lines floating: minimal power, worst sneak;
* ``"ground"``  — unselected lines grounded: sneak-free but power-hungry;
* ``"half_v"``  — unselected lines at V/2: the usual compromise.

The sense margin compares the read current of a selected ON cell in the
worst-case background (all other cells ON) against a selected OFF cell
in the same background.

Reads run on the one solver of :mod:`repro.sim.readout`,
:func:`~repro.sim.readout.sense_currents`, which factors each bank state
once in a fixed operation order (result bytes v3: the same bits on every
host).  :meth:`ReadoutModel.read_current` is its one-cell call and
:meth:`ReadoutModel.reference_currents` its one-cell dual-reference
call; the scalar oracle kept with the tests repeats the same arithmetic
one cell at a time, bit for bit, and the per-cell free-node solve it
replaced stays there as the tolerance reference (within 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCHEMES = ("float", "ground", "half_v")


class ReadoutError(ValueError):
    """Raised for invalid read-out configurations."""


def check_technology(r_on: float, r_off: float, v_read: float) -> None:
    """Reject a non-physical crosspoint technology with :class:`ReadoutError`.

    ``r_on``, ``r_off`` and ``v_read`` must be finite and positive, and
    ``r_off`` must exceed ``r_on``; NaN fails every check.  The one
    check behind :class:`ReadoutModel` and every request that carries
    the technology as raw numbers.
    """
    for name, value in (("r_on", r_on), ("r_off", r_off), ("v_read", v_read)):
        if not (math.isfinite(value) and value > 0):
            raise ReadoutError(f"{name} must be finite and > 0, got {value}")
    if not r_off > r_on:
        raise ReadoutError(f"r_off must exceed r_on, got r_off={r_off}, r_on={r_on}")


def check_resolution(resolution: float) -> None:
    """Reject a sense-amplifier resolution outside ``[0, 1)`` (or NaN)."""
    if not 0.0 <= resolution < 1.0:
        raise ReadoutError(f"sense resolution must be in [0, 1), got {resolution}")


@dataclass(frozen=True)
class ReadoutModel:
    """Electrical read-out configuration of a resistive crossbar bank.

    Parameters
    ----------
    r_on, r_off:
        Crosspoint resistance in the ON / OFF state [ohm].
    v_read:
        Read voltage applied to the selected row [V].
    scheme:
        Biasing of unselected lines (see module docstring).
    """

    r_on: float = 1.0e5
    r_off: float = 1.0e7
    v_read: float = 0.5
    scheme: str = "float"

    def __post_init__(self) -> None:
        check_technology(self.r_on, self.r_off, self.v_read)
        if self.scheme not in SCHEMES:
            raise ReadoutError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )

    # -- network solution -----------------------------------------------------

    def conductances(self, states: np.ndarray) -> np.ndarray:
        """Per-crosspoint conductance matrix from the ON/OFF state map."""
        states = np.asarray(states, dtype=bool)
        if states.ndim != 2:
            raise ReadoutError(f"state map must be 2-D, got shape {states.shape}")
        return np.where(states, 1.0 / self.r_on, 1.0 / self.r_off)

    def read_current(self, states: np.ndarray, row: int, col: int) -> float:
        """Sense current [A] when reading crosspoint (row, col).

        Solves the nodal equations of the full bank (one factorization
        of ``states``).  The selected row is driven at ``v_read`` and the
        selected column is held at virtual ground by the sense
        amplifier; unselected lines follow the biasing scheme.
        """
        g = self.conductances(states)
        rows, cols = g.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise ReadoutError(f"selected cell ({row}, {col}) outside {g.shape}")
        from repro.sim.readout import sense_currents

        return float(
            sense_currents(g[None], [row], [col], self.scheme, self.v_read)[0]
        )

    @property
    def reference_conductances(self) -> tuple[float, float]:
        """Selected-cell conductances of the forced-ON and forced-OFF reads.

        The ``selected`` argument of :func:`~repro.sim.readout.sense_currents`
        that gives both dual-sensing references from the one
        factorization of a cell's bank.  The reference whose forced state
        is the cell's own equals :meth:`read_current` bit for bit; the
        other equals :meth:`read_current` of the forced state within
        rounding (the same circuit, factored from the other state).
        """
        return 1.0 / self.r_on, 1.0 / self.r_off

    def reference_currents(
        self, states: np.ndarray, row: int, col: int
    ) -> tuple[float, float]:
        """(I_on, I_off) of crosspoint (row, col) forced ON and forced OFF.

        Both references come from one factorization of ``states`` (the
        bank with the cell as stored): the one-cell call of the
        dual-reference reads of :class:`~repro.crossbar.array.CrossbarArray`
        and of the electrical workload engine.
        """
        g = self.conductances(states)
        rows, cols = g.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise ReadoutError(f"selected cell ({row}, {col}) outside {g.shape}")
        from repro.sim.readout import sense_currents

        i_on, i_off = sense_currents(
            g[None], [row], [col], self.scheme, self.v_read, self.reference_conductances
        )[:, 0].tolist()
        return i_on, i_off

    # -- margins -----------------------------------------------------------------

    def worst_case_currents(self, rows: int, cols: int) -> tuple[float, float]:
        """(I_on, I_off) of a selected cell in the all-ON worst background."""
        if rows < 1 or cols < 1:
            raise ReadoutError("bank must have at least one row and column")
        return self.reference_currents(np.ones((rows, cols), dtype=bool), 0, 0)

    def sense_margin(self, rows: int, cols: int) -> float:
        """Relative worst-case margin ``(I_on - I_off) / I_on``.

        1.0 is a perfect read; values near 0 mean the OFF state is
        indistinguishable from ON because sneak currents dominate.
        """
        i_on, i_off = self.worst_case_currents(rows, cols)
        if i_on <= 0:
            raise ReadoutError("non-positive ON current; check the model")
        return (i_on - i_off) / i_on

    def sense_margins(self, sizes) -> list[float]:
        """Worst-case margins of square banks, one per size.

        The per-size worst-case backgrounds are stamped once and shared
        through the engine's bank sweep; the values equal
        :meth:`sense_margin` size by size.
        """
        from repro.sim.readout import scheme_margin_sweep

        sweep = scheme_margin_sweep(
            tuple(sizes),
            r_on=self.r_on,
            r_off=self.r_off,
            v_read=self.v_read,
            schemes=(self.scheme,),
        )
        return sweep[self.scheme]


def margin_vs_bank_size(
    model: ReadoutModel,
    sizes: tuple[int, ...] = (4, 8, 16, 32, 64),
) -> list[tuple[int, float]]:
    """Worst-case margin of square banks across sizes.

    Under the floating scheme the margin collapses with size — the
    quantitative argument for segmenting the crossbar into cave-sized
    banks with their own contact groups.
    """
    return list(zip(sizes, model.sense_margins(sizes)))


def max_bank_size(
    model: ReadoutModel,
    min_margin: float,
    limit: int = 512,
) -> int:
    """Largest square bank keeping the worst-case margin above a floor."""
    if not 0.0 < min_margin < 1.0:
        raise ReadoutError(f"margin floor must be in (0, 1), got {min_margin}")
    best = 0
    size = 2
    while size <= limit:
        if model.sense_margin(size, size) >= min_margin:
            best = size
            size *= 2
        else:
            break
    return best
