"""Batched sneak-path readout engine: one factorization per bank state.

This module is the one solver behind every crossbar read of the
product.  A floating-line read of cell ``(r, c)`` depends on the bank's
state only through the effective conductance between row ``r`` and
column ``c``, so one factorization of a state serves every cell read
from it, and both dual-sensing references of a cell (selected cell
forced ON and OFF) come from it too:

* :func:`factor_banks` eliminates the row nodes and factors the
  grounded column Laplacian of a stack of states (``LDLᵀ``, pivots
  built without subtraction);
* :func:`bank_currents` reads any cells of the factored states;
* :func:`sense_currents` is the one entry point the product calls
  (``ReadoutModel.read_current`` is its one-cell call,
  :class:`~repro.crossbar.array.CrossbarArray` stacks its distinct
  banks into it, and the electrical workload engine calls the two
  steps above through its memo).

**Result bytes v3.**  The heavy products are sums of ``1/d_r`` over
0/1 patterns, split on a common quantum so every ``np.matmul`` partial
sum is exact (:func:`subset_sums`); everything else is elementwise
IEEE-754 arithmetic and sequential ``np.cumsum`` in a fixed order.  No
LAPACK call and no order-dependent BLAS reduction reaches a current,
so the bits are the same on every host and BLAS core type.  The
per-cell free-node solve this replaced is kept with the test oracles
as the tolerance reference.

:func:`scheme_margin_sweep` shares the worst-case background of each
bank size across the biasing schemes, and :class:`BankCache` is the
state-keyed LRU memo the electrical workload engine keeps its bank
factors in.  The module imports numpy only.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable

import numpy as np

__all__ = [
    "SLAB_BYTES",
    "BankCache",
    "bank_currents",
    "factor_banks",
    "scheme_margin_sweep",
    "sense_currents",
    "slab_states",
    "state_digest",
    "subset_sums",
]


def _readout_error(message: str):
    # lazy import: repro.crossbar.readout imports this module inside its
    # methods, so a module-level import here would be circular
    from repro.crossbar.readout import ReadoutError

    return ReadoutError(message)


# -- state-keyed bank cache ----------------------------------------------------


def state_digest(block: np.ndarray) -> bytes:
    """Digest of a bank's state (or conductance) block.

    A sense current is a pure function of the block's dtype, shape and
    bytes (and of the selected cell), so this digest fully identifies a
    bank.  Engines key their long-lived memos on it (:class:`BankCache`)
    instead of keeping mutable references that could go stale.
    """
    block = np.ascontiguousarray(block)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((block.dtype.str, block.shape)).encode())
    h.update(block.tobytes())
    return h.digest()


class BankCache:
    """State-keyed memo with hit/miss/eviction counters (LRU).

    Factoring a bank is the expensive part of a read, and its factors
    are a pure function of the bank's state block, so a digest of that
    block (:func:`state_digest`) fully identifies every read derived
    from it.  Engines that read the same banks across chunks — the
    common case under zipfian traffic, where most banks are quiescent
    between reads — key their per-bank entries here and skip the
    factorizations entirely.

    Entries are arbitrary objects (the electrical workload engine keeps
    a state's factors and its read cells' reference pairs); eviction is
    least-recently-used beyond ``max_banks``.
    """

    def __init__(self, max_banks: int = 1024) -> None:
        if max_banks < 1:
            raise _readout_error(f"cache needs max_banks >= 1, got {max_banks}")
        self.max_banks = int(max_banks)
        self._banks: OrderedDict[bytes, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._banks)

    def peek(self, key: bytes):
        """The entry stored under ``key``, or None; counts and order stay."""
        return self._banks.get(key)

    def get(self, key: bytes, factory: Callable[[], object]):
        """The entry stored under ``key``, building it on first use.

        Cached entries are deterministic functions of their state block,
        so a hit returns bit-identical figures to a fresh build — the
        cache changes cost, never results.
        """
        bank = self._banks.get(key)
        if bank is not None:
            self.hits += 1
            self._banks.move_to_end(key)
            return bank
        self.misses += 1
        bank = factory()
        self._banks[key] = bank
        while len(self._banks) > self.max_banks:
            self._banks.popitem(last=False)
            self.evictions += 1
        return bank


# -- fixed-order bank factorizations ------------------------------------------

#: Scratch budget of one factorization or solve slab, per thread (Gram
#: products, Schur complements and factors of a slab of bank states, or
#: the gathered factors of a slab of read cells).
SLAB_BYTES = 2 << 20


def slab_states(rows: int, cols: int) -> int:
    """Bank states per :func:`factor_banks` slab for banks up to ``rows x cols``.

    Sized to keep one slab's scratch (Schur complements, factors and
    elimination temporaries, plus the sub-slabs :func:`factor_banks`
    forms the Schur complements in) near :data:`SLAB_BYTES`.
    """
    return max(1, SLAB_BYTES // (8 * (2 * cols * cols + rows * (cols + 1))))


def _gram_states(rows: int, cols: int) -> int:
    """States per :func:`subset_sums` sub-slab: half of :data:`SLAB_BYTES`."""
    return max(1, SLAB_BYTES // (16 * (3 * rows * (cols + 1) + 4 * (cols + 1) ** 2)))


def subset_sums(patterns: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact-split Gram sums ``P[s].T @ diag(w[s]) @ P[s]`` of 0/1 patterns.

    ``patterns`` is a ``(s, R, K)`` stack of 0/1 columns and ``w`` the
    ``(s, R)`` positive row weights.  Entry ``(j, k)`` of state ``s`` is
    the sum of ``w[s, i]`` over the rows ``i`` where columns ``j`` and
    ``k`` both hold 1.  Each state's weights are split on a common
    power-of-two quantum into slices of ``53 - ceil(log2 R)`` bits
    (Ozaki, Ogita, Oishi & Rump 2012), so every product and partial sum
    of a slice's ``np.matmul`` is exact and the BLAS kernel's order
    cannot show; the slices' sums are then added in order.  When
    two slices hold every weight (weights within
    ``2**(53 - 2 ceil(log2 R))`` of each other, i.e. ``r_off / r_on`` up
    to ~1e11 at 64 rows) the result is the correctly rounded subset sum,
    ``math.fsum`` of the subset.
    """
    _, n_rows, _ = patterns.shape
    bits = 53 - (n_rows - 1).bit_length()
    _, exponent = np.frexp(w.max(axis=1))
    quantum = np.ldexp(1.0, exponent - bits)[:, None]
    transposed = patterns.transpose(0, 2, 1)
    total = None
    rest = w
    while True:
        piece = np.rint(rest / quantum) * quantum
        part = transposed @ (piece[:, :, None] * patterns)
        total = part if total is None else total + part
        rest = rest - piece
        if not rest.any():
            return total
        quantum = np.ldexp(quantum, -bits)


def _column_starts(m: int) -> list[int]:
    """Offsets of the columns of a column-packed strictly lower ``m x m``."""
    starts = [0]
    for q in range(m):
        starts.append(starts[-1] + m - 1 - q)
    return starts


def factor_banks(states: np.ndarray, g_on: float, g_off: float) -> tuple:
    """Fixed-order LDLᵀ factors of a ``(s, R, C)`` stack of bank states.

    ``states`` are the ON/OFF maps, read with ON conductance ``g_on``
    and OFF conductance ``g_off``.  Row nodes are eliminated
    analytically: ``S = D_c - Gᵀ diag(1/d_r) G`` is the column-node
    Laplacian, grounded at the last column.  Its off-diagonal
    conductances ``Σ_i g_ij g_ik / d_i`` come from :func:`subset_sums` of
    ``1/d_r`` over the ON pattern (``g = lo + (hi - lo) * on``, with
    ``hi``/``lo`` the largest and smallest conductance of the state),
    and its diagonal is never formed: each pivot is the sum of the
    node's remaining conductances plus its leak to ground, and each
    elimination step adds ``S_jq S_qk / piv_q`` to the remaining
    conductances and leaks, so no pivot comes from a cancelling
    subtraction (Grassmann, Taksar & Heyman).  All of it is elementwise
    arithmetic and sequential ``np.cumsum`` over the stack (states
    innermost), so a state's factors depend on its own map alone, bit
    for bit, on any host.

    Returns ``(states, g_on, g_off, d_row, low, piv)``: the maps and
    conductances, the row conductance sums ``(s, R)`` (``n_on * g_on +
    n_off * g_off``), the elimination multipliers ``low[:, s]`` (column
    ``q`` of the strictly lower factor holds rows ``q+1 .. m-1``,
    packed column after column) and the pivots ``piv[q, s]``, with
    ``m = C - 1``.
    """
    states = np.asarray(states, dtype=bool)
    if g_on == g_off:
        # one conductance: every cell reads as ON, as in a map that holds
        # it alone (sense_currents reads a map's largest value as ON)
        states = np.ones_like(states)
    n_states, n_rows, n_cols = states.shape
    n_on = states.sum(axis=2)
    d_row = n_on * g_on + (n_cols - n_on) * g_off
    m = n_cols - 1
    starts = _column_starts(m)
    low = np.empty((starts[-1], n_states))
    piv = np.empty((m, n_states))
    factors = states, g_on, g_off, d_row, low, piv
    if not m:
        return factors
    hi = np.where(states.any(axis=(1, 2)), g_on, g_off)
    lo = np.where(states.all(axis=(1, 2)), g_on, g_off)
    gap = hi - lo
    # Σ_i g_ij g_ik / d_i over the two-valued g, every term positive,
    # stored states innermost
    w = np.empty((n_cols, n_cols, n_states))
    step = _gram_states(n_rows, n_cols)
    for start in range(0, n_states, step):
        sub = slice(start, start + step)
        patterns = np.ones((states[sub].shape[0], n_rows, n_cols + 1))
        patterns[:, :, :n_cols] = states[sub]
        sums = subset_sums(patterns, 1.0 / d_row[sub])
        both = sums[:, :n_cols, :n_cols]
        one = sums[:, :n_cols, n_cols]
        total = sums[:, n_cols, n_cols]
        lo_s, gap_s = lo[sub, None, None], gap[sub, None, None]
        ends = one[:, :, None] + one[:, None, :]
        part = lo_s * lo_s * total[:, None, None] + lo_s * gap_s * ends
        part += gap_s * gap_s * both
        w[:, :, sub] = part.transpose(1, 2, 0)
    # row q right of the diagonal: conductances to the nodes still to be
    # eliminated, then (column m) the leak to the grounded column
    for q in range(m):
        row = w[q, q + 1 :]
        piv[q] = np.cumsum(row, axis=0)[-1]
        mult = low[starts[q] : starts[q + 1]]
        np.divide(row[:-1], piv[q], out=mult)
        # only entries right of the diagonal are ever read: in blocks of
        # the trailing rows, each skips the columns left of its block
        k = m - q - 1
        n_blocks = min(3, k // 12 + 1)
        for b in range(n_blocks):
            lo_b, hi_b = k * b // n_blocks, k * (b + 1) // n_blocks
            rows_b = slice(q + 1 + lo_b, q + 1 + hi_b)
            w[rows_b, q + 1 + lo_b :] += mult[lo_b:hi_b, None, :] * row[None, lo_b:]
    return factors


def bank_currents(factors: tuple, which, rows, cols, v_read: float, selected=None):
    """Float-scheme sense currents of read cells from :func:`factor_banks`.

    Cell ``k`` reads cell ``(rows[k], cols[k])`` of state ``which[k]``:
    ``i(g_sel) = v_read * (g_sel + C_eff - g[r, c])``, where
    ``R_eff = 1/d_r[r] + bᵀ S⁻¹ b`` with ``b = g[r, :]/d_r[r] - e_c``
    (grounded) is the effective resistance between the driven row and
    the sensed column, so ``C_eff - g[r, c]`` is the conductance of every
    path but the selected cell.  ``bᵀ S⁻¹ b`` is ``Σ y_q² / piv_q`` with
    ``y = L⁻¹ b`` by right-looking forward substitution, summed in
    order.  Each cell's value depends on its own state and cell only.
    ``selected`` lists selected-cell conductances (one row of currents
    each); without it, the cell's own conductance.
    """
    states, g_on, g_off, d_row, low, piv = factors
    which = np.asarray(which, dtype=np.intp).ravel()
    rows = np.asarray(rows, dtype=np.intp).ravel()
    cols = np.asarray(cols, dtype=np.intp).ravel()
    m = piv.shape[0]
    starts = _column_starts(m)
    step = max(1, SLAB_BYTES // (8 * (4 * m + 4)))
    sneak = np.empty(which.size)
    for start in range(0, which.size, step):
        k = slice(start, start + step)
        s, r, c = which[k], rows[k], cols[k]
        d_r = d_row[s, r]
        # same scalar selection as ReadoutModel.conductances
        g_row = np.where(states[s, r, :m], g_on, g_off)
        y = (g_row / d_r[:, None]).T.copy()
        grounded = np.flatnonzero(c < m)
        y[c[grounded], grounded] -= 1.0
        for q in range(m - 1):
            y[q + 1 :] += low[starts[q] : starts[q + 1]][:, s] * y[q]
        r_eff = 1.0 / d_r
        if m:
            r_eff = r_eff + np.cumsum(y * y / piv[:, s], axis=0)[-1]
        sneak[k] = 1.0 / r_eff - np.where(states[s, r, c], g_on, g_off)
    if selected is None:
        g_cell = np.where(states[which, rows, cols], g_on, g_off)
        return (g_cell + sneak) * v_read
    out = np.empty((len(selected), which.size))
    for j, g_sel in enumerate(selected):
        out[j] = (g_sel + sneak) * v_read
    return out


def sense_currents(
    g: np.ndarray, rows, cols, scheme: str, v_read: float, selected=None, which=None
) -> np.ndarray:
    """Sense currents of read cells of a stack of bank states.

    ``g`` is a ``(s, R, C)`` stack of ideal-line conductance maps and
    cell ``k`` reads cell ``(rows[k], cols[k])`` of map ``which[k]``
    (default: map ``k``).  ``selected`` (e.g. ``(1/r_on, 1/r_off)``,
    forced ON and OFF) lists conductances for the selected cell and
    gets one row of currents per entry; without it, each cell's own.

    * ``float`` factors each state once (:func:`factor_banks`; every
      map holds at most two conductances, the stack's largest read as
      ON) and serves every cell read from it (:func:`bank_currents`):
      the selected cell joins the driven row to the sensed column, so a
      cell's forced-ON and forced-OFF references both come from its
      state's one factorization.  Callers bound the stack: its scratch
      grows with it (:func:`slab_states`).
    * ``ground`` / ``half_v`` fix every line: the current sums
      ``g[i, col] * V[i]`` sequentially over the rows (``np.cumsum``),
      starting from ``0.0``.

    No order-dependent reduction reaches a current, so results are the
    same bits on every host.
    """
    g = np.asarray(g, dtype=float)
    rows = np.asarray(rows, dtype=np.intp).ravel()
    cols = np.asarray(cols, dtype=np.intp).ravel()
    if which is None:
        which = np.arange(rows.size)
    which = np.asarray(which, dtype=np.intp).ravel()
    if scheme == "float":
        g_on, g_off = g.max(), g.min()
        on = g == g_on
        if not np.all(on | (g == g_off)):
            raise _readout_error("float reads need two-valued conductance maps")
        factors = factor_banks(on, g_on, g_off)
        return bank_currents(factors, which, rows, cols, v_read, selected)
    if scheme not in ("ground", "half_v"):
        raise _readout_error(f"unknown scheme {scheme!r}")
    k = rows.size
    v_rows = np.full((k, g.shape[1]), 0.0 if scheme == "ground" else v_read / 2.0)
    v_rows[np.arange(k), rows] = v_read
    terms = g[which, :, cols] * v_rows
    if selected is None:
        # ``+ 0.0`` makes an all-zero sum +0.0, as a 0.0-started loop
        return np.cumsum(terms, axis=1)[:, -1] + 0.0
    out = np.empty((len(selected), k))
    for j, g_sel in enumerate(selected):
        terms[np.arange(k), rows] = g_sel * v_read
        out[j] = np.cumsum(terms, axis=1)[:, -1] + 0.0
    return out


# -- bank-size sweeps ----------------------------------------------------------


def scheme_margin_sweep(
    sizes,
    *,
    r_on: float = 1.0e5,
    r_off: float = 1.0e7,
    v_read: float = 0.5,
    schemes=("float", "ground", "half_v"),
) -> dict:
    """Worst-case sense margins of square banks, per scheme and size.

    The worst-case all-ON background is built once per bank size and
    shared across every biasing scheme, one paired :func:`sense_currents`
    call (selected cell ON and OFF) per scheme.  Margins equal the
    scalar reference bit for bit.
    """
    from repro.crossbar.readout import check_technology

    check_technology(r_on, r_off, v_read)
    for size in sizes:
        if size < 1:
            raise _readout_error(
                f"bank sizes must be >= 1, got {size} in {tuple(sizes)}"
            )
    out = {scheme: [] for scheme in schemes}
    for size in sizes:
        # same scalar 1/r division as ReadoutModel.conductances, so the
        # margins stay byte-identical to the loop path
        g_on = np.full((1, size, size), 1.0 / r_on)
        for scheme in schemes:
            i_on, i_off = sense_currents(
                g_on, [0], [0], scheme, v_read, (1.0 / r_on, 1.0 / r_off)
            )[:, 0].tolist()
            if i_on <= 0:
                raise _readout_error("non-positive ON current; check the model")
            out[scheme].append((i_on - i_off) / i_on)
    return out
