"""Loop readout model: the per-cell stamping solver, one solve per read.

It subclasses the product model and overrides the per-cell
``read_current``, and ``worst_case_currents`` as its two single-state
reads (the product makes them one paired solve).  The product's one
solver,
``repro.sim.readout.sense_currents``, must reproduce it bit for bit for
every (state map, cell) pair (``tests/test_sim_readout.py``), and the
readout benchmark times the margin sweep against it.
:func:`dual_reference` senses one crosspoint through any model's
``read_current``, so the workload loop oracle can run on this solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crossbar.readout import ReadoutError, ReadoutModel


@dataclass(frozen=True)
class LoopReadoutModel(ReadoutModel):
    """Ideal-line readout on the nested per-cell stamping loop."""

    def read_current(self, states: np.ndarray, row: int, col: int) -> float:
        g = self.conductances(states)
        rows, cols = g.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise ReadoutError(f"selected cell ({row}, {col}) outside {g.shape}")
        return self._read_current_loop(g, row, col)

    def worst_case_currents(self, rows: int, cols: int) -> tuple[float, float]:
        if rows < 1 or cols < 1:
            raise ReadoutError("bank must have at least one row and column")
        background = np.ones((rows, cols), dtype=bool)
        i_on = self.read_current(background, 0, 0)
        background[0, 0] = False
        return i_on, self.read_current(background, 0, 0)

    def sense_margins(self, sizes) -> list[float]:
        return [self.sense_margin(size, size) for size in sizes]

    def _read_current_loop(self, g: np.ndarray, row: int, col: int) -> float:
        """Scalar per-cell reference: nested stamping loop, one solve."""
        rows, cols = g.shape
        n_nodes = rows + cols

        def col_node(j: int) -> int:
            return rows + j

        # Laplacian of the resistor network
        lap = np.zeros((n_nodes, n_nodes))
        for i in range(rows):
            for j in range(cols):
                gij = g[i, j]
                lap[i, i] += gij
                lap[col_node(j), col_node(j)] += gij
                lap[i, col_node(j)] -= gij
                lap[col_node(j), i] -= gij

        fixed: dict[int, float] = {row: self.v_read, col_node(col): 0.0}
        if self.scheme == "ground":
            for i in range(rows):
                if i != row:
                    fixed[i] = 0.0
            for j in range(cols):
                if j != col:
                    fixed[col_node(j)] = 0.0
        elif self.scheme == "half_v":
            for i in range(rows):
                if i != row:
                    fixed[i] = self.v_read / 2.0
            for j in range(cols):
                if j != col:
                    fixed[col_node(j)] = self.v_read / 2.0

        voltages = np.empty(n_nodes)
        free = [k for k in range(n_nodes) if k not in fixed]
        for k, v in fixed.items():
            voltages[k] = v
        if free:
            a = lap[np.ix_(free, free)]
            rhs = -lap[np.ix_(free, list(fixed))] @ np.array([fixed[k] for k in fixed])
            voltages[np.array(free)] = np.linalg.solve(a, rhs)

        # current into the sense (virtual-ground) column node
        sense = col_node(col)
        current = 0.0
        for i in range(rows):
            current += g[i, col] * (voltages[i] - voltages[sense])
        return float(current)


def dual_reference(model, states, per: int, row: int, col: int):
    """(sensed bit, margin) of crosspoint ``(row, col)``, one read a reference.

    The cave-sized bank (``per`` wires a side) around the crosspoint is
    read with the cell forced ON and forced OFF, one
    ``model.read_current`` each; the measured current is the reference
    whose forced state is the stored bit, classified to the nearer one.
    """
    r0, c0 = row // per * per, col // per * per
    bank = np.array(states[r0 : r0 + per, c0 : c0 + per], dtype=bool)
    lr, lc = row - r0, col - c0
    stored = bool(bank[lr, lc])
    bank[lr, lc] = True
    i_on = model.read_current(bank, lr, lc)
    bank[lr, lc] = False
    i_off = model.read_current(bank, lr, lc)
    current = i_on if stored else i_off
    return abs(current - i_on) < abs(current - i_off), (i_on - i_off) / i_on
