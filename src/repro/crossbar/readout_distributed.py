"""Distributed-line crossbar read-out: sneak paths *and* IR drop.

:mod:`repro.crossbar.readout` treats every row/column line as one ideal
node.  Real MSPT nanowires are long, thin poly-Si resistors
(:mod:`repro.device.resistance`), so the line voltage sags along the
wire and far-corner cells read differently from near-corner ones.

This solver models each line as a resistor chain with one node per
crossing: a bank with ``m x n`` crosspoints has ``2 m n`` nodes, each
crosspoint a conductance between its row node and column node, and each
line segment a conductance between adjacent nodes of the same line.
The sparse Laplacian is solved with SciPy; the ideal-line solver is the
``segment_resistance = 0`` limit (checked in the tests).

The solver assembles the Laplacian from COO triplet arrays and solves
cell batches against one ``splu`` factorization with a block RHS
(:meth:`DistributedReadout.read_currents`).  It agrees with the
original dict-stamping per-cell reference, kept with the test oracles,
within sparse-solver tolerance (relative differences at the 1e-9
level; gated in the tests and the readout bench).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crossbar.readout import ReadoutError, ReadoutModel


@dataclass(frozen=True)
class DistributedReadout:
    """Read-out with finite line resistance: a standalone bank model.

    It sizes IR drop on one bank; :class:`~repro.crossbar.array.
    CrossbarArray` and the electrical workload take a plain
    :class:`ReadoutModel` only.

    Parameters
    ----------
    base:
        Crosspoint model (R_on/R_off, read voltage, biasing scheme).
    row_segment_ohm, col_segment_ohm:
        Series resistance of one line segment (between two adjacent
        crossings) on each layer.
    """

    base: ReadoutModel = ReadoutModel()
    row_segment_ohm: float = 50.0
    col_segment_ohm: float = 50.0

    def __post_init__(self) -> None:
        if self.row_segment_ohm < 0 or self.col_segment_ohm < 0:
            raise ReadoutError("segment resistances must be non-negative")

    def _segment_conductances(self) -> tuple[float, float]:
        """Effective per-segment conductances on each layer.

        A zero-resistance segment is numerically ideal: large relative
        to the crosspoint conductances but small enough to keep the
        sparse solve well conditioned (the same substitution on both
        solver paths).
        """
        big = 1e5 / self.base.r_on
        g_row = big if self.row_segment_ohm == 0 else 1.0 / self.row_segment_ohm
        g_col = big if self.col_segment_ohm == 0 else 1.0 / self.col_segment_ohm
        return g_row, g_col

    def read_current(self, states: np.ndarray, row: int, col: int) -> float:
        """Sense current [A] reading crosspoint (row, col).

        The selected row is driven at its *near* end (column 0 side) and
        the selected column sensed at its near end (row 0 side), so the
        selected cell's position inside the bank matters — the IR-drop
        effect the ideal solver cannot show.
        """
        g = self.base.conductances(states)
        rows, cols = g.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise ReadoutError(f"selected cell ({row}, {col}) outside {g.shape}")
        from repro.sim.readout import DistributedBank

        g_row, g_col = self._segment_conductances()
        bank = DistributedBank(g, g_row, g_col)
        return float(
            bank.read_currents(self.base.scheme, self.base.v_read, [(row, col)])[0]
        )

    def read_currents(self, states: np.ndarray, cells) -> np.ndarray:
        """Sense currents of many cells of one bank state.

        The distributed Laplacian is assembled and factorized once
        (``splu``) and every cell becomes a column of one block-RHS
        solve.
        """
        from repro.sim.readout import DistributedBank

        g = self.base.conductances(states)
        g_row, g_col = self._segment_conductances()
        bank = DistributedBank(g, g_row, g_col)
        return bank.read_currents(self.base.scheme, self.base.v_read, cells)

    def position_sweep(
        self, size: int, positions: list[int] | None = None
    ) -> list[tuple[int, float]]:
        """ON-cell read current along the bank diagonal.

        Shows the IR-drop gradient: far-corner cells (large index) see
        less drive voltage and read lower.
        """
        positions = positions or [0, size // 2, size - 1]
        states = np.zeros((size, size), dtype=bool)
        out = []
        for p in positions:
            states[:, :] = False
            states[p, p] = True
            out.append((p, self.read_current(states, p, p)))
        return out

    def worst_case_margin(self, size: int) -> float:
        """Margin of the far-corner cell in the all-ON background.

        The pessimistic combination: maximum sneak, maximum IR drop.
        """
        states = np.ones((size, size), dtype=bool)
        far = size - 1
        i_on = self.read_current(states, far, far)
        states[far, far] = False
        i_off = self.read_current(states, far, far)
        if i_on <= 0:
            raise ReadoutError("non-positive ON current")
        return (i_on - i_off) / i_on
