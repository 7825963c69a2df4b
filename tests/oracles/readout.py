"""Readout oracles: the scalar kernel loop and the LAPACK reference.

:class:`LoopReadoutModel` subclasses the product model and reads one
cell at a time with plain Python floats: it factors the cell's bank
with the product kernel's own operations in the same order (exact
subset sums, subtraction-free ``LDLᵀ`` of the grounded column
Laplacian, forward substitution, sequential sums), so
``repro.sim.readout.sense_currents`` must reproduce it bit for bit for
every (state map, cell) pair (``tests/test_sim_readout.py``), and the
readout benchmark times the margin sweep against it.

:func:`lapack_sense_currents` is the per-cell free-node solve the
kernel replaced (result bytes v2), kept as the tolerance reference: the
kernel agrees with it within 1e-12.  :func:`dual_reference` senses one
crosspoint through any model's ``reference_currents``, so the workload
loop oracle can run on the scalar kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.crossbar.readout import ReadoutError, ReadoutModel


def _slice_sums(piece, on) -> tuple:
    """Subset sums of one exact slice: both ends ON, one end ON, all rows.

    Every partial sum of a slice is exact, so ``math.fsum`` (or any
    order) gives the bits of the kernel's ``np.matmul``.
    """
    n_cols = len(on[0])
    x = [[0.0] * n_cols for _ in range(n_cols)]
    for j in range(n_cols):
        for k in range(n_cols):
            x[j][k] = math.fsum(p for p, o in zip(piece, on) if o[j] and o[k])
    u = [math.fsum(p for p, o in zip(piece, on) if o[j]) for j in range(n_cols)]
    return x, u, math.fsum(piece)


def _factor(g) -> tuple:
    """Scalar ``factor_banks`` of one two-valued map (lists of floats)."""
    n_rows, n_cols = len(g), len(g[0])
    hi = max(max(row) for row in g)
    lo = min(min(row) for row in g)
    d_row = []
    for row in g:
        n_on = sum(x == hi for x in row)
        d_row.append(n_on * hi + (n_cols - n_on) * lo)
    m = n_cols - 1
    if not m:
        return g, d_row, [], []
    # exact subset sums of 1/d_r, slice by slice: both ends ON (x), one
    # end ON (u), all rows (t)
    on = [[x == hi for x in row] for row in g]
    w = [1.0 / d for d in d_row]
    bits = 53 - (n_rows - 1).bit_length()
    quantum = math.ldexp(1.0, math.frexp(max(w))[1] - bits)
    x = u = t = None
    while True:
        piece = [float(round(r / quantum)) * quantum for r in w]
        px, pu, pt = _slice_sums(piece, on)
        if x is None:
            x, u, t = px, pu, pt
        else:
            x = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(x, px)]
            u = [a + b for a, b in zip(u, pu)]
            t = t + pt
        w = [r - p for r, p in zip(w, piece)]
        if not any(w):
            break
        quantum = math.ldexp(quantum, -bits)
    gap = hi - lo
    a = [[0.0] * n_cols for _ in range(n_cols)]
    for j in range(n_cols):
        for k in range(n_cols):
            ends = u[j] + u[k]
            a[j][k] = lo * lo * t + lo * gap * ends + gap * gap * x[j][k]
    leak = [a[j][m] for j in range(m)]
    low = [[0.0] * m for _ in range(m)]
    piv = [0.0] * m
    for q in range(m):
        row = a[q][q + 1 : m]
        if row:
            acc = row[0]
            for v in row[1:]:
                acc += v
            pivot = acc + leak[q]
        else:
            pivot = leak[q]
        piv[q] = pivot
        for j in range(q + 1, m):
            mult = a[q][j] / pivot
            low[j][q] = mult
            for k in range(j + 1, m):
                a[j][k] += mult * a[q][k]
            leak[j] += mult * leak[q]
    return g, d_row, low, piv


def _sneak(factors, row: int, col: int) -> float:
    """Scalar ``bank_currents``: conductance of every path but the cell."""
    g, d_row, low, piv = factors
    m = len(piv)
    d_r = d_row[row]
    y = [g[row][j] / d_r for j in range(m)]
    if col < m:
        y[col] -= 1.0
    for q in range(m - 1):
        for j in range(q + 1, m):
            y[j] += low[j][q] * y[q]
    r_eff = 1.0 / d_r
    if m:
        acc = y[0] * y[0] / piv[0]
        for q in range(1, m):
            acc += y[q] * y[q] / piv[q]
        r_eff = r_eff + acc
    return 1.0 / r_eff - g[row][col]


@dataclass(frozen=True)
class LoopReadoutModel(ReadoutModel):
    """Ideal-line readout on the scalar kernel loop, one cell per call."""

    def _currents(self, states, row: int, col: int, selected=None) -> list[float]:
        """Currents per selected-cell conductance (default: the cell's own)."""
        g = self.conductances(states)
        rows, cols = g.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise ReadoutError(f"selected cell ({row}, {col}) outside {g.shape}")
        g = g.tolist()
        if selected is None:
            selected = (g[row][col],)
        if self.scheme == "float":
            sneak = _sneak(_factor(g), row, col)
            return [(g_sel + sneak) * self.v_read for g_sel in selected]
        # ground / half_v: every line fixed, the rows' terms summed in order
        fixed = 0.0 if self.scheme == "ground" else self.v_read / 2.0
        out = []
        for g_sel in selected:
            current = 0.0
            for i in range(rows):
                if i == row:
                    current += g_sel * self.v_read
                else:
                    current += g[i][col] * fixed
            out.append(current)
        return out

    def read_current(self, states: np.ndarray, row: int, col: int) -> float:
        return self._currents(states, row, col)[0]

    def reference_currents(self, states, row: int, col: int) -> tuple[float, float]:
        i_on, i_off = self._currents(states, row, col, self.reference_conductances)
        return i_on, i_off

    def sense_margins(self, sizes) -> list[float]:
        return [self.sense_margin(size, size) for size in sizes]


def dual_reference(model, states, per: int, row: int, col: int):
    """(sensed bit, margin) of crosspoint ``(row, col)`` from its bank's references.

    The cave-sized bank (``per`` wires a side) around the crosspoint is
    read with the cell forced ON and forced OFF, both from one
    ``model.reference_currents`` call on the bank as stored; the
    measured current is the reference whose forced state is the stored
    bit, classified to the nearer one.
    """
    r0, c0 = row // per * per, col // per * per
    bank = np.array(states[r0 : r0 + per, c0 : c0 + per], dtype=bool)
    lr, lc = row - r0, col - c0
    i_on, i_off = model.reference_currents(bank, lr, lc)
    current = i_on if bank[lr, lc] else i_off
    return abs(current - i_on) < abs(current - i_off), (i_on - i_off) / i_on


def lapack_sense_currents(
    g: np.ndarray, rows, cols, scheme: str, v_read: float, selected=None
) -> np.ndarray:
    """Per-cell free-node solves of a slab of (conductance map, cell) pairs.

    The product's arithmetic up to result bytes v2, kept as the
    tolerance reference of the factor-once kernel: each pair's
    free-node system (every line but the driven row and the sensed
    column) goes to LAPACK ``gesv`` in one ``np.linalg.solve`` call, and
    the sense current sums ``g[i, col] * V[i]`` over the rows.  Its bits
    depend on the BLAS/LAPACK kernel; its values agree with
    ``repro.sim.readout.sense_currents`` within 1e-12.
    """
    g = np.asarray(g, dtype=float)
    k, n_rows, n_cols = g.shape
    slab = np.arange(k)
    keep_r = np.ones((k, n_rows), dtype=bool)
    keep_r[slab, rows] = False
    if scheme == "float":
        fr, fc = n_rows - 1, n_cols - 1
        keep_c = np.ones((k, n_cols), dtype=bool)
        keep_c[slab, cols] = False
        # copies, so the (k, R, C) running sums are freed at once
        d_row = np.cumsum(g, axis=2)[:, :, -1].copy()
        d_col = np.cumsum(g, axis=1)[:, -1, :].copy()
        # free rows then free columns, each ascending: the diagonal,
        # and the -g coupling blocks (``off`` is the column-row block)
        a = np.zeros((k, fr + fc, fr + fc))
        diag = a.reshape(k, -1)[:, :: fr + fc + 1]
        diag[:, :fr] = d_row[keep_r].reshape(k, fr)
        diag[:, fr:] = d_col[keep_c].reshape(k, fc)
        g_free_rows = g[keep_r].reshape(k, fr, n_cols)
        off = g_free_rows.transpose(0, 2, 1)[keep_c].reshape(k, fc, fr)
        np.negative(off, out=a[:, fr:, :fr])
        np.negative(off.transpose(0, 2, 1), out=a[:, :fr, fr:])
        # driven row at v_read, sense column at 0: only the free
        # columns couple to the driver
        rhs = np.zeros((k, fr + fc, 1))
        rhs[:, fr:, 0] = g[slab, rows][keep_c].reshape(k, fc) * v_read
        v_rows = np.empty((k, n_rows))
        if fr:
            v_rows[keep_r] = np.linalg.solve(a, rhs)[:, :fr, 0].reshape(-1)
    elif scheme in ("ground", "half_v"):
        v_rows = np.full((k, n_rows), 0.0 if scheme == "ground" else v_read / 2.0)
    else:
        raise ReadoutError(f"unknown scheme {scheme!r}")
    v_rows[~keep_r] = v_read
    terms = g[slab, :, cols] * v_rows
    if selected is None:
        # ``+ 0.0`` makes an all-zero sum +0.0, as the reference's 0.0 start
        return np.cumsum(terms, axis=1)[:, -1] + 0.0
    out = np.empty((len(selected), k))
    for j, g_sel in enumerate(selected):
        terms[slab, rows] = g_sel * v_read
        out[j] = np.cumsum(terms, axis=1)[:, -1] + 0.0
    return out


