"""Batched sneak-path readout engine: stacked per-cell solves.

The original scalar solver (kept with the test oracles) assembles the
conductance Laplacian with nested per-cell Python loops and solves one
``(states, row, col)`` triple per call.  This module is the one solver
behind every crossbar read of the product:
:func:`sense_currents` solves a slab of (state map, cell) pairs with
the scalar loop's own arithmetic — each pair's free-node system is
gathered into one stack and LAPACK solves the stack in a single
``np.linalg.solve`` call — so it reproduces the scalar loop bit for
bit.  ``ReadoutModel.read_current`` is its one-pair call.  The
forced-ON and forced-OFF references of a cell differ only in the
selected cell, which enters no free-node system, so one solve gives
both: the :class:`~repro.crossbar.array.CrossbarArray` reads stack
every cell's bank into it once, and the electrical workload engine
solves its queued misses through it.

:func:`scheme_margin_sweep` shares the worst-case background of each
bank size across the biasing schemes, and :class:`BankCache` is the
state-keyed LRU memo the electrical workload engine keeps its sense
currents in.  The module imports numpy only.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable

import numpy as np

__all__ = [
    "SLAB_BYTES",
    "BankCache",
    "scheme_margin_sweep",
    "sense_currents",
    "slab_pairs",
    "state_digest",
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

    Solving a bank is the expensive part of a read, and its result is a
    pure function of the bank's state block, so a digest of that block
    (:func:`state_digest`) fully identifies every solve derived from it.
    Engines that read the same banks across chunks — the common case
    under zipfian traffic, where most banks are quiescent between reads
    — key their per-bank entries here and skip the solves entirely.

    Entries are arbitrary objects (the electrical workload engine keeps
    a ``{cell: current}`` dict per forced state); eviction is
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


# -- stacked per-cell solves ---------------------------------------------------

#: Scratch budget of one stacked solve slab, per thread (forced-state
#: snapshots, conductance maps and reduced free-node systems).
SLAB_BYTES = 2 << 20


def slab_pairs(rows: int, cols: int) -> int:
    """Pairs per :func:`sense_currents` slab for banks up to ``rows x cols``.

    Sized to keep one slab's scratch near :data:`SLAB_BYTES`.
    """
    free = rows + cols - 2
    per_cell = 8 * (free * free + 3 * rows * cols) + rows * cols
    return max(1, SLAB_BYTES // per_cell)


def sense_currents(
    g: np.ndarray, rows, cols, scheme: str, v_read: float, selected=None
) -> np.ndarray:
    """Sense currents of a slab of (conductance map, selected cell) pairs.

    ``g`` is a ``(k, R, C)`` stack of ideal-line conductance maps and
    ``rows`` / ``cols`` the ``k`` selected cells.  Every pair gets the
    scalar reference's own arithmetic, bit for bit:

    * the Laplacian diagonals are sequential sums along each line
      (``np.cumsum``), the element order of the reference's
      ``np.add.at`` stamping;
    * ``float`` reads reduce each pair to its free-node system (every
      line except the driven row and the sensed column, ascending) and
      the whole slab goes to LAPACK in one ``np.linalg.solve`` call,
      which runs one ``gesv`` per system;
    * ``ground`` / ``half_v`` fix every line, so they need no solve;
    * the sense current sums ``g[i, col] * V[i]`` sequentially over the
      rows, starting from ``0.0`` like the reference loop.

    The selected cell joins the driven row to the sensed column, so it
    enters no free-node system, only its own term of the final sum.
    ``selected`` (e.g. ``(1/r_on, 1/r_off)``, forced ON and OFF) lists
    conductances for it and gets one row of ``k`` currents per entry
    from the one solve; without it, the ``k`` currents of ``g`` as given.
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
        raise _readout_error(f"unknown scheme {scheme!r}")
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
