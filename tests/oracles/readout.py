"""Loop readout models: the per-cell stamping solvers, one solve per read.

They subclass the product models and plug in through the per-cell
``read_current`` only: ``CrossbarArray.read_bit`` and ``read_margin``
sense through it, so the workload loop oracle runs on these solvers,
while the array's batched reads and the electrical engine keep the
product's bank engine whatever model subclass they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from repro.crossbar.readout import ReadoutError, ReadoutModel
from repro.crossbar.readout_distributed import DistributedReadout
from repro.sim.readout import _as_cells


def _read_each(model, states: np.ndarray, cells) -> np.ndarray:
    """One scalar ``read_current`` per cell (the block-RHS reference)."""
    rows, cols = _as_cells(cells, *np.shape(states))
    return np.array(
        [model.read_current(states, int(r), int(c)) for r, c in zip(rows, cols)]
    )


@dataclass(frozen=True)
class LoopReadoutModel(ReadoutModel):
    """Ideal-line readout on the nested per-cell stamping loop."""

    def read_current(self, states: np.ndarray, row: int, col: int) -> float:
        g = self.conductances(states)
        rows, cols = g.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise ReadoutError(f"selected cell ({row}, {col}) outside {g.shape}")
        return self._read_current_loop(g, row, col)

    def read_currents(self, states: np.ndarray, cells) -> np.ndarray:
        return _read_each(self, states, cells)

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


@dataclass(frozen=True)
class LoopDistributedReadout(DistributedReadout):
    """Distributed-line readout on the dict-stamping per-cell solver."""

    def read_current(self, states: np.ndarray, row: int, col: int) -> float:
        g = self.base.conductances(states)
        rows, cols = g.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise ReadoutError(f"selected cell ({row}, {col}) outside {g.shape}")
        return self._read_current_loop(g, row, col)

    def read_currents(self, states: np.ndarray, cells) -> np.ndarray:
        return _read_each(self, states, cells)

    def _read_current_loop(self, g: np.ndarray, row: int, col: int) -> float:
        """Scalar per-cell reference: dict stamping, one sparse solve."""
        rows, cols = g.shape
        n_nodes = 2 * rows * cols

        def rnode(i: int, j: int) -> int:
            return i * cols + j

        def cnode(i: int, j: int) -> int:
            return rows * cols + i * cols + j

        entries: dict[tuple[int, int], float] = {}

        def add(a: int, b: int, conductance: float) -> None:
            entries[(a, a)] = entries.get((a, a), 0.0) + conductance
            entries[(b, b)] = entries.get((b, b), 0.0) + conductance
            entries[(a, b)] = entries.get((a, b), 0.0) - conductance
            entries[(b, a)] = entries.get((b, a), 0.0) - conductance

        # crosspoint conductances
        for i in range(rows):
            for j in range(cols):
                add(rnode(i, j), cnode(i, j), g[i, j])
        g_row, g_col = self._segment_conductances()
        # row-line segments (along columns)
        for i in range(rows):
            for j in range(cols - 1):
                add(rnode(i, j), rnode(i, j + 1), g_row)
        # column-line segments (along rows)
        for j in range(cols):
            for i in range(rows - 1):
                add(cnode(i, j), cnode(i + 1, j), g_col)

        fixed: dict[int, float] = {
            rnode(row, 0): self.base.v_read,  # driver at the row's near end
            cnode(0, col): 0.0,  # sense amp at the column's near end
        }
        if self.base.scheme in ("ground", "half_v"):
            bias = 0.0 if self.base.scheme == "ground" else self.base.v_read / 2.0
            for i in range(rows):
                if i != row:
                    fixed[rnode(i, 0)] = bias
            for j in range(cols):
                if j != col:
                    fixed[cnode(0, j)] = bias

        free = [k for k in range(n_nodes) if k not in fixed]
        index_of = {k: idx for idx, k in enumerate(free)}
        data, rows_idx, cols_idx = [], [], []
        rhs = np.zeros(len(free))
        for (a, b), val in entries.items():
            if a in fixed:
                continue
            if b in fixed:
                rhs[index_of[a]] -= val * fixed[b]
            else:
                data.append(val)
                rows_idx.append(index_of[a])
                cols_idx.append(index_of[b])
        lap = csr_matrix((data, (rows_idx, cols_idx)), shape=(len(free), len(free)))
        voltages = np.empty(n_nodes)
        for k, v in fixed.items():
            voltages[k] = v
        if free:
            voltages[np.array(free)] = spsolve(lap, rhs)

        # current into the sense node: the sense node collects the
        # column current through its first segment plus the local
        # crosspoint
        sense = cnode(0, col)
        current = g[0, col] * (voltages[rnode(0, col)] - voltages[sense])
        if rows > 1:
            current += g_col * (voltages[cnode(1, col)] - voltages[sense])
        return float(current)
