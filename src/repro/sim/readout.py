"""Batched sneak-path readout engine: vectorized stamping, block-RHS solves.

The original scalar solvers (kept with the test oracles) assemble their
conductance Laplacians with nested per-cell Python loops and solve one
``(states, row, col)`` triple per call.  This module is the batched
engine behind :mod:`repro.crossbar.readout` and
:mod:`repro.crossbar.readout_distributed`:

* **Vectorized stamping** — :func:`ideal_laplacian` stamps the
  ideal-line Laplacian with ``np.add.at`` scatter-adds whose per-entry
  accumulation order matches the scalar loop exactly, so the dense path
  stays *byte-identical* to the scalar reference;
  :func:`distributed_laplacian` builds the ``2 m n``-node
  distributed-line Laplacian from COO triplet arrays (index grids, no
  Python-level cell loops).

* **Shared factorizations with block RHS** — the Laplacian depends only
  on the ON/OFF state map, never on the selected cell, so reading many
  cells of one bank (or one cell under many bias patterns) factorizes
  once and solves a block right-hand side:

  - ``float`` scheme: a read is a two-terminal problem, so the sense
    current is ``v_read / R_eff(p, q)`` with the effective resistance
    taken from Green's-function columns of one LU factorization
    (:func:`scipy.linalg.lu_factor` for the small dense ideal banks,
    :func:`scipy.sparse.linalg.splu` for distributed banks) solved
    against a block of basis vectors — one column per distinct line
    node the cell batch touches.  scipy is imported inside the
    functions that factorize, so importing this module (and
    :func:`sense_currents`, which uses ``np.linalg`` only) loads no
    scipy;
  - ``ground`` / ``half_v`` schemes: the ideal bank is fully
    constrained (closed-form currents), and the distributed bank shares
    one free-node set across all cells, so the per-cell bias patterns
    become columns of a single factorized ``splu`` solve.

* **Stacked per-cell solves** — :func:`sense_currents` solves a slab
  of (state map, cell) pairs with the scalar loop's own arithmetic:
  each pair's free-node system is gathered into one stack and LAPACK
  solves the stack in a single ``np.linalg.solve`` call.  It is the
  one per-cell path: ``ReadoutModel.read_current`` is its one-pair
  call, and the electrical workload engine solves its queued misses
  through it.

The block-RHS paths agree with the per-cell reference within solver
tolerance (different but equally valid arithmetic; see
``benchmarks/bench_readout.py`` for the gated bounds), while the
per-cell path reproduces the scalar loop bit for bit.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro import obs

__all__ = [
    "BankCache",
    "DistributedBank",
    "IdealBank",
    "distributed_laplacian",
    "ideal_laplacian",
    "scheme_margin_sweep",
    "sense_currents",
    "state_digest",
]


def _readout_error(message: str):
    # lazy import: repro.crossbar.readout imports this module's classes
    # inside its methods, so a module-level import here would be circular
    from repro.crossbar.readout import ReadoutError

    return ReadoutError(message)


def _as_cells(cells, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate a cell batch; returns (row indices, col indices)."""
    arr = np.asarray(cells, dtype=int)
    if arr.ndim == 1 and arr.size == 2:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise _readout_error(
            f"cells must be an (k, 2) array of (row, col) pairs, "
            f"got shape {arr.shape}"
        )
    r, c = arr[:, 0], arr[:, 1]
    if arr.size and (r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols):
        raise _readout_error(f"cell batch selects outside the ({rows}, {cols}) bank")
    return r, c


# -- state-keyed factorization bank cache --------------------------------------


def state_digest(block: np.ndarray) -> bytes:
    """Digest of a bank's state (or conductance) block.

    The stamped Laplacian — and every factorization and solve derived
    from it — is a pure function of the block's dtype, shape and bytes,
    so this digest fully identifies a bank.  Engines key their
    long-lived banks on it (:class:`BankCache`) instead of keeping
    mutable references that could go stale.
    """
    block = np.ascontiguousarray(block)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((block.dtype.str, block.shape)).encode())
    h.update(block.tobytes())
    return h.digest()


class BankCache:
    """State-keyed factorization cache with hit/miss counters (LRU).

    Stamping and factorizing a bank is the expensive part of a read;
    the bank itself is immutable once built (its arrays are frozen), so
    a digest of the state block (:func:`state_digest`) fully identifies
    the stamped Laplacian, its ``lu_factor`` / ``splu`` / ``_biased``
    factorizations, and any memoized per-cell solves.  Engines that
    read the same banks across chunks — the common case under zipfian
    traffic, where most banks are quiescent between reads — key their
    banks here and skip re-stamping and re-factorization entirely.

    Entries are arbitrary bank objects (:class:`IdealBank`,
    :class:`DistributedBank`, or engine-private wrappers); eviction is
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
        """The bank stored under ``key``, building it on first use.

        Cached banks are deterministic functions of their state block,
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

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for fleet-metric reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "banks": len(self._banks),
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        """Drop every cached bank and reset the counters."""
        self._banks.clear()
        self.hits = self.misses = self.evictions = 0


# -- vectorized Laplacian stamping ---------------------------------------------


def ideal_laplacian(g: np.ndarray) -> np.ndarray:
    """Dense Laplacian of the ideal-line crossbar network.

    Nodes are the ``rows`` row lines followed by the ``cols`` column
    lines; every crosspoint is a conductance between its row and column
    node.  Diagonal entries are accumulated with ``np.add.at`` in the
    same element order as the scalar per-cell stamping loop, so the
    result is byte-identical to the scalar reference.
    """
    rows, cols = g.shape
    n = rows + cols
    lap = np.zeros((n, n))
    lap[:rows, rows:] = -g
    lap[rows:, :rows] = -g.T
    flat = g.ravel()
    ii = np.repeat(np.arange(rows), cols)
    jj = rows + np.tile(np.arange(cols), rows)
    np.add.at(lap, (ii, ii), flat)
    np.add.at(lap, (jj, jj), flat)
    return lap


def distributed_laplacian(
    g: np.ndarray, row_segment_g: float, col_segment_g: float
) -> "coo_matrix":
    """Sparse Laplacian of the distributed-line network (COO triplets).

    One node per line crossing (``2 * rows * cols`` total): node
    ``i * cols + j`` is the row-line crossing, ``rows * cols + i * cols
    + j`` the column-line crossing.  Crosspoints connect the two nodes
    of a crossing; line segments connect adjacent crossings of one
    line with the given segment conductances.  Duplicate triplets are
    summed by the sparse constructor — the vectorized equivalent of the
    scalar path's dict-based stamping.
    """
    rows, cols = g.shape
    n = 2 * rows * cols
    rnode = np.arange(rows * cols).reshape(rows, cols)
    cnode = rows * cols + rnode

    edges_a = [rnode.ravel()]
    edges_b = [cnode.ravel()]
    weights = [g.ravel()]
    if cols > 1:
        a = rnode[:, :-1].ravel()
        edges_a.append(a)
        edges_b.append(a + 1)
        weights.append(np.full(a.size, row_segment_g))
    if rows > 1:
        a = cnode[:-1, :].ravel()
        edges_a.append(a)
        edges_b.append(a + cols)
        weights.append(np.full(a.size, col_segment_g))
    a = np.concatenate(edges_a)
    b = np.concatenate(edges_b)
    w = np.concatenate(weights)

    data = np.concatenate([w, w, -w, -w])
    i = np.concatenate([a, b, a, b])
    j = np.concatenate([a, b, b, a])
    from scipy.sparse import coo_matrix

    return coo_matrix((data, (i, j)), shape=(n, n)).tocsr()


# -- stacked per-cell solves ---------------------------------------------------


def sense_currents(g: np.ndarray, rows, cols, scheme: str, v_read: float) -> np.ndarray:
    """Sense currents of a slab of (conductance map, selected cell) pairs.

    ``g`` is a ``(k, R, C)`` stack of ideal-line conductance maps and
    ``rows`` / ``cols`` the ``k`` selected cells.  Every pair gets the
    scalar reference's own arithmetic, bit for bit:

    * the Laplacian diagonals are sequential sums along each line, the
      element order of the reference's ``np.add.at`` stamping;
    * ``float`` reads reduce each pair to its free-node system (every
      line except the driven row and the sensed column, ascending) and
      the whole slab goes to LAPACK in one ``np.linalg.solve`` call,
      which runs one ``gesv`` per system;
    * ``ground`` / ``half_v`` fix every line, so they need no solve;
    * the sense current sums ``g[i, col] * V[i]`` sequentially over the
      rows, starting from ``0.0`` like the reference loop.
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
        d_row = g[:, :, 0].copy()
        for j in range(1, n_cols):
            d_row += g[:, :, j]
        d_col = g[:, 0, :].copy()
        for i in range(1, n_rows):
            d_col += g[:, i, :]
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
    # ``+ 0.0`` makes an all-zero sum +0.0, as the reference's 0.0 start
    return np.cumsum(terms, axis=1)[:, -1] + 0.0


# -- ideal-line bank solver ----------------------------------------------------


class IdealBank:
    """One stamped ideal-line bank: state-only Laplacian, shared solves.

    The Laplacian depends only on the conductance map ``g`` — not on
    the selected cell or the biasing scheme — so one ``IdealBank`` can
    serve every read of the bank state: batched cell sets through
    :meth:`read_currents` (one dense LU factorization, block RHS) and
    their toggled-cell references through :meth:`toggled_currents`.

    ``g`` and ``lap`` are private copies frozen with
    ``setflags(write=False)``: the lazily cached factorization would
    silently go stale if either array were mutated after the first
    solve, so a bank is immutable by construction — re-stamp a new
    bank (or fetch one from a :class:`BankCache`) for a new state.
    """

    def __init__(self, g: np.ndarray) -> None:
        g = np.array(g, dtype=float)
        g.setflags(write=False)
        self.g = g
        self.rows, self.cols = self.g.shape
        lap = ideal_laplacian(self.g)
        lap.setflags(write=False)
        self.lap = lap
        self._lu = None

    # -- batched cells (one factorization, block RHS) --------------------------

    def _green_columns(self, nodes: np.ndarray) -> np.ndarray:
        """Green's-function columns (gauge: node 0 grounded) for ``nodes``."""
        from scipy.linalg import lu_factor, lu_solve

        if self._lu is None:
            self._lu = lu_factor(self.lap[1:, 1:])
            obs.counter("readout.factorizations.lu")
        n = self.rows + self.cols
        rhs = np.zeros((n - 1, nodes.size))
        inner = nodes > 0
        rhs[nodes[inner] - 1, np.nonzero(inner)[0]] = 1.0
        full = np.zeros((n, nodes.size))
        full[1:] = lu_solve(self._lu, rhs)
        return full

    def read_currents(self, scheme: str, v_read: float, cells) -> np.ndarray:
        """Sense currents of many cells of this bank state.

        ``ground`` and ``half_v`` banks are fully constrained, so the
        currents are closed-form; ``float`` reads share one dense LU
        factorization and solve a block RHS of basis vectors (one
        column per distinct line node in the batch).
        """
        r, c = _as_cells(cells, self.rows, self.cols)
        if r.size == 0:
            return np.empty(0)
        if scheme == "ground":
            return v_read * self.g[r, c]
        if scheme == "half_v":
            col_sums = self.g.sum(axis=0)
            return v_read * self.g[r, c] + (v_read / 2.0) * (col_sums[c] - self.g[r, c])
        # float: two-terminal effective resistance via Green's columns
        p = r
        q = self.rows + c
        nodes = np.unique(np.concatenate([p, q]))
        green = self._green_columns(nodes)
        ip = np.searchsorted(nodes, p)
        iq = np.searchsorted(nodes, q)
        r_eff = green[p, ip] + green[q, iq] - green[p, iq] - green[q, ip]
        return v_read / r_eff

    # -- rank-1 reference updates (Sherman-Morrison) ---------------------------

    def toggled_currents(
        self,
        scheme: str,
        v_read: float,
        cells,
        measured: np.ndarray,
        delta_g: np.ndarray,
    ) -> np.ndarray:
        """Sense currents after perturbing each cell's conductance.

        Toggling one crosspoint is a rank-1 perturbation ``delta_g *
        w w^T`` of the bank Laplacian (``w = e_row - e_col_node``), and
        in the ideal bank the perturbed branch spans the two read
        terminals themselves — the driven row and the virtual-ground
        column.  The Sherman-Morrison update therefore collapses to a
        closed form for every scheme, ``i' = i + v_read * delta_g``:

        * ``float``: the branch sits in parallel with the rest of the
          two-terminal network, so ``1/R'_eff = 1/R_eff + delta_g``;
        * ``ground`` / ``half_v``: the bank is fully constrained, so
          every other branch keeps its voltage drop and only the
          perturbed branch's current changes, by ``v_read * delta_g``.

        Dual-reference sensing thus costs *zero* extra solves per cell
        on top of the measured block solve, instead of a fresh modified
        bank per cell.  Agrees with a re-stamped bank within solver
        tolerance (the update is exact in real arithmetic).
        """
        r, c = _as_cells(cells, self.rows, self.cols)
        measured = np.asarray(measured, dtype=float)
        delta_g = np.broadcast_to(np.asarray(delta_g, dtype=float), r.shape)
        if measured.shape != r.shape:
            raise _readout_error(
                f"measured currents shape {measured.shape} does not match "
                f"the {r.size}-cell batch"
            )
        return measured + v_read * delta_g


# -- distributed-line bank solver ----------------------------------------------


class DistributedBank:
    """One stamped distributed-line bank: sparse LU, block-RHS solves.

    ``row_segment_g`` / ``col_segment_g`` are the *effective* segment
    conductances (the zero-resistance limit substituted with the same
    large-but-conditioned value as the scalar path).  Like
    :class:`IdealBank`, the Laplacian depends only on the state map, so
    one factorization serves every cell of the batch: the ``float``
    scheme through Green's-function columns of one :func:`splu`
    factorization, the biased schemes through a shared free-node set
    whose per-cell bias patterns form the columns of a single
    block-RHS solve.
    """

    def __init__(
        self, g: np.ndarray, row_segment_g: float, col_segment_g: float
    ) -> None:
        g = np.array(g, dtype=float)
        g.setflags(write=False)
        self.g = g
        self.rows, self.cols = self.g.shape
        self.row_segment_g = float(row_segment_g)
        self.col_segment_g = float(col_segment_g)
        self.n_nodes = 2 * self.rows * self.cols
        self.lap = distributed_laplacian(self.g, row_segment_g, col_segment_g)
        # the lazily cached splu factorizations below must never go
        # stale: freeze the CSR buffers like the dense bank freezes g/lap
        self.lap.data.setflags(write=False)
        self.lap.indices.setflags(write=False)
        self.lap.indptr.setflags(write=False)
        self._green = None
        self._biased = None

    # node indexing (matches the scalar path): row crossing (i, j) is
    # i * cols + j, column crossing (i, j) is rows * cols + i * cols + j

    def _green_columns(self, nodes: np.ndarray) -> np.ndarray:
        """Green's-function columns (gauge: node 0 grounded) for ``nodes``."""
        if self._green is None:
            from scipy.sparse.linalg import splu

            self._green = splu(self.lap[1:, :][:, 1:].tocsc())
            obs.counter("readout.factorizations.splu")
        rhs = np.zeros((self.n_nodes - 1, nodes.size))
        inner = nodes > 0
        rhs[nodes[inner] - 1, np.nonzero(inner)[0]] = 1.0
        full = np.zeros((self.n_nodes, nodes.size))
        full[1:] = self._green.solve(rhs)
        return full

    def _biased_system(self):
        """Factorized free-node system shared by ground/half_v reads.

        Under the biased schemes every line-end node is constrained for
        every selected cell, so the free-node set — and therefore the
        reduced matrix and its factorization — is identical across the
        whole cell batch; only the fixed *values* change per cell.
        """
        if self._biased is None:
            row_ends = np.arange(self.rows) * self.cols
            col_ends = self.rows * self.cols + np.arange(self.cols)
            fixed = np.concatenate([row_ends, col_ends])
            free_mask = np.ones(self.n_nodes, dtype=bool)
            free_mask[fixed] = False
            free = np.nonzero(free_mask)[0]
            reduced = self.lap[free, :]
            from scipy.sparse.linalg import splu

            lu = splu(reduced[:, free].tocsc()) if free.size else None
            if lu is not None:
                obs.counter("readout.factorizations.splu")
            self._biased = (fixed, free, lu, reduced[:, fixed])
        return self._biased

    def read_currents(self, scheme: str, v_read: float, cells) -> np.ndarray:
        """Sense currents of many cells of this bank state (one solve)."""
        r, c = _as_cells(cells, self.rows, self.cols)
        if r.size == 0:
            return np.empty(0)
        if scheme == "float":
            return self._float_currents(v_read, r, c)
        return self._biased_currents(scheme, v_read, r, c)

    def _float_currents(
        self, v_read: float, r: np.ndarray, c: np.ndarray
    ) -> np.ndarray:
        # driver at the row's near end, sense amp at the column's near
        # end: a two-terminal problem per cell, all sharing one splu
        p = r * self.cols
        q = self.rows * self.cols + c
        nodes = np.unique(np.concatenate([p, q]))
        green = self._green_columns(nodes)
        ip = np.searchsorted(nodes, p)
        iq = np.searchsorted(nodes, q)
        r_eff = green[p, ip] + green[q, iq] - green[p, iq] - green[q, ip]
        return v_read / r_eff

    def _biased_currents(
        self, scheme: str, v_read: float, r: np.ndarray, c: np.ndarray
    ) -> np.ndarray:
        bias = 0.0 if scheme == "ground" else v_read / 2.0
        fixed, free, lu, lap_fc = self._biased_system()
        k = r.size
        batch = np.arange(k)
        # fixed-node layout: the first ``rows`` entries are the row
        # drivers rnode(i, 0), the rest the column senses cnode(0, j)
        v_fixed = np.full((fixed.size, k), bias)
        v_fixed[r, batch] = v_read
        v_fixed[self.rows + c, batch] = 0.0
        voltages = np.empty((self.n_nodes, k))
        voltages[fixed] = v_fixed
        if free.size:
            voltages[free] = lu.solve(-(lap_fc @ v_fixed))
        sense = self.rows * self.cols + c
        near_row = c  # rnode(0, c) == c
        currents = self.g[0, c] * (voltages[near_row, batch] - voltages[sense, batch])
        if self.rows > 1:
            below = self.rows * self.cols + self.cols + c  # cnode(1, c)
            currents = currents + self.col_segment_g * (
                voltages[below, batch] - voltages[sense, batch]
            )
        return currents


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

    The two worst-case backgrounds (all-ON, and all-ON with the
    selected cell OFF) are stamped once per bank size and shared across
    every biasing scheme — the Laplacian depends only on the state map.
    Margins equal the scalar reference bit for bit.
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
        g_on = np.full((size, size), 1.0 / r_on)
        off_map = np.ones((size, size), dtype=bool)
        off_map[0, 0] = False
        g_off = np.where(off_map, 1.0 / r_on, 1.0 / r_off)
        pair = np.stack([g_on, g_off])
        for scheme in schemes:
            i_on, i_off = sense_currents(pair, [0, 0], [0, 0], scheme, v_read).tolist()
            if i_on <= 0:
                raise _readout_error("non-positive ON current; check the model")
            out[scheme].append((i_on - i_off) / i_on)
    return out
