"""End-to-end crossbar array: decoder addressing + defects + read-out.

:class:`CrossbarArray` is the integration object a downstream user
manipulates: a sampled physical instance of the platform's crossbar
whose bits are accessed through the *full* chain —

1. the logical wire index is translated to its deterministic decoder
   address (cave, side, contact group, pattern word);
2. the access fails if the sampled instance lost that wire to threshold
   drift or a contact boundary (the defect map);
3. the bit value is sensed *electrically*: the cave-sized bank around
   the crosspoint is solved as a resistor network and the current is
   compared against the bank's worst-case decision threshold.

This is the executable form of the paper's claim that the MSPT decoder
"uniquely addresses every nanowire": addressing, yield and read-out are
one consistent pipeline rather than three disconnected models.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.codes.base import CodeSpace
from repro.crossbar.defects import DefectMap, sample_defect_map
from repro.crossbar.readout import ReadoutModel
from repro.crossbar.spec import CrossbarSpec
from repro.decoder.addressmap import AddressMap, WireAddress
from repro.sim.readout import BankCache, IdealBank, state_digest


class AddressingFault(RuntimeError):
    """Raised when an access targets a non-addressable wire."""


class CrossbarArray:
    """One sampled crossbar instance with electrical bit access.

    Parameters
    ----------
    spec:
        Platform specification.
    space:
        Address code used by both layers.
    seed:
        Seed for sampling the physical instance (defects).
    readout:
        Electrical read-out model, a :class:`ReadoutModel`; defaults to
        the floating scheme.
    defects:
        Optional pre-sampled defect map (e.g. a fleet instance's map,
        so the workload engine's scalar reference touches the *same*
        physical crossbar); sampled from ``seed`` when omitted.
    """

    def __init__(
        self,
        spec: CrossbarSpec,
        space: CodeSpace,
        seed: int = 0,
        readout: ReadoutModel | None = None,
        defects: DefectMap | None = None,
    ) -> None:
        if readout is None:
            readout = ReadoutModel()
        elif not isinstance(readout, ReadoutModel):
            raise TypeError(
                f"readout must be a ReadoutModel, got {type(readout).__name__}"
            )
        self.spec = spec
        self.space = space
        self.readout = readout
        self.address_map = AddressMap(spec, space)
        self.defects: DefectMap = (
            sample_defect_map(spec, space, seed=seed) if defects is None else defects
        )
        side = spec.side_nanowires
        if self.defects.shape != (side, side):
            raise ValueError(
                f"defect map shape {self.defects.shape} does not match the "
                f"({side}, {side}) crosspoint grid"
            )
        self._states = np.zeros((side, side), dtype=bool)
        # state-keyed factorization cache: batched reads key each bank's
        # stamped/factorized solver on a digest of its state block, so
        # banks that are quiescent between read batches skip re-stamping
        self._bank_cache = BankCache(max_banks=64)

    # -- addressing --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Raw crosspoint grid shape."""
        return self._states.shape

    def row_address(self, row: int) -> WireAddress:
        """Decoder address of a row wire."""
        return self.address_map.address_of(row)

    def column_address(self, col: int) -> WireAddress:
        """Decoder address of a column wire."""
        return self.address_map.address_of(col)

    def is_accessible(self, row: int, col: int) -> bool:
        """True if both wires of the crosspoint survived fabrication."""
        rows, cols = self.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            return False
        return bool(self.defects.row_ok[row] and self.defects.col_ok[col])

    def _check_access(self, row: int, col: int) -> None:
        rows, cols = self.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise AddressingFault(f"crosspoint ({row}, {col}) outside {self.shape}")
        if not self.defects.row_ok[row]:
            raise AddressingFault(
                f"row wire {row} is not addressable ({self.row_address(row)})"
            )
        if not self.defects.col_ok[col]:
            raise AddressingFault(
                f"column wire {col} is not addressable ({self.column_address(col)})"
            )

    # -- bit access ----------------------------------------------------------------

    def write_bit(self, row: int, col: int, value: bool) -> None:
        """Program one crosspoint through the decoders."""
        self._check_access(row, col)
        self._states[row, col] = bool(value)

    def _bank_bounds(self, index: int) -> tuple[int, int]:
        """Wire-index range of the cave-sized bank containing ``index``."""
        per_cave = self.address_map.wires_per_cave
        start = (index // per_cave) * per_cave
        return start, min(start + per_cave, self.shape[0])

    def _forced_references(self, row: int, col: int) -> tuple[bool, float, float]:
        """(stored bit, I_if_on, I_if_off) of one crosspoint in its bank.

        The cave-sized bank is solved with the selected cell forced ON
        and forced OFF (same data background); the reference whose
        forced state equals the stored bit *is* the measured current.
        """
        self._check_access(row, col)
        r0, r1 = self._bank_bounds(row)
        c0, c1 = self._bank_bounds(col)
        bank = self._states[r0:r1, c0:c1].copy()
        r_local, c_local = row - r0, col - c0
        stored = bool(bank[r_local, c_local])
        bank[r_local, c_local] = True
        i_on = self.readout.read_current(bank, r_local, c_local)
        bank[r_local, c_local] = False
        i_off = self.readout.read_current(bank, r_local, c_local)
        if i_on <= 0:
            raise AddressingFault("non-positive reference current")
        return stored, i_on, i_off

    def read_bit(self, row: int, col: int) -> bool:
        """Sense one crosspoint electrically with dual-reference sensing.

        A fixed current threshold cannot work in a floating-scheme
        crossbar: the sneak-path pedestal depends on the bank's data
        background and can exceed the cell current many times over.
        Real designs therefore compare against *reference* reads; here
        the sense amplifier is modelled as ideal dual-reference sensing
        — the cave-sized bank is solved with the selected cell forced ON
        and forced OFF (same background), and the measured current is
        classified to the nearer reference.
        """
        stored, i_on, i_off = self._forced_references(row, col)
        current = i_on if stored else i_off
        return abs(current - i_on) < abs(current - i_off)

    def _bank_groups(self, rows: np.ndarray, cols: np.ndarray):
        """Cells grouped by their (row-bank, col-bank) pair.

        Yields ``(bank view bounds, local cells, original indices)`` so
        every bank's shared-state solves can run as one factorized
        batch through the readout engine.
        """
        per_cave = self.address_map.wires_per_cave
        keys = (rows // per_cave) * (1 + self.shape[1] // per_cave) + (cols // per_cave)
        order = np.argsort(keys, kind="stable")
        for key in np.unique(keys):
            idx = order[keys[order] == key]
            r0, _ = self._bank_bounds(int(rows[idx[0]]))
            c0, _ = self._bank_bounds(int(cols[idx[0]]))
            local = np.stack([rows[idx] - r0, cols[idx] - c0], axis=1)
            yield (r0, c0), local, idx

    def _reference_currents(
        self, rows, cols
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I_measured, I_if_on, I_if_off) for a batch of crosspoints.

        Raises :class:`AddressingFault` on the first inaccessible
        crosspoint, like :meth:`read_bit`.  The measured currents — and
        the reference whose forced state matches the cell's actual
        state — come from *one* factorized block-RHS solve per bank
        (the bank Laplacian depends only on the state map, not on the
        selected cell), memoized in the array's state-keyed
        :class:`~repro.sim.readout.BankCache`.  The opposite reference
        is a Sherman-Morrison rank-1 update of the same factorization
        (toggling one crosspoint perturbs the bank Laplacian by one
        conductance delta), so dual-reference sensing costs no per-cell
        re-stamping at all.
        """
        rows = np.asarray(rows, dtype=int).ravel()
        cols = np.asarray(cols, dtype=int).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have matching shapes")
        for r, c in zip(rows, cols):
            self._check_access(int(r), int(c))
        currents = np.empty(rows.size)
        i_on = np.empty(rows.size)
        i_off = np.empty(rows.size)
        model = self.readout
        per = self.address_map.wires_per_cave
        # toggled minus current conductance: OFF cells gain (g_on -
        # g_off), ON cells lose it
        g_swing = 1.0 / model.r_on - 1.0 / model.r_off
        for (r0, c0), local, idx in self._bank_groups(rows, cols):
            bank = self._states[r0 : r0 + per, c0 : c0 + per]
            solver = self._bank_cache.get(
                b"ideal:" + state_digest(bank),
                lambda bank=bank: IdealBank(model.conductances(bank)),
            )
            measured = solver.read_currents(model.scheme, model.v_read, local)
            stored = bank[local[:, 0], local[:, 1]]
            other = solver.toggled_currents(
                model.scheme,
                model.v_read,
                local,
                measured,
                g_swing * np.where(stored, -1.0, 1.0),
            )
            currents[idx] = measured
            i_on[idx] = np.where(stored, measured, other)
            i_off[idx] = np.where(stored, other, measured)
            obs.counter("readout.sherman_morrison", idx.size)
        if np.any(i_on <= 0):
            raise AddressingFault("non-positive reference current")
        return currents, i_on, i_off

    def read_bits(self, rows, cols) -> np.ndarray:
        """Sense many crosspoints; dual-reference decisions, batched.

        Cells are grouped by cave-sized bank; each bank's measured
        currents (and the matching-state references) share one
        factorized solve.
        """
        currents, i_on, i_off = self._reference_currents(rows, cols)
        return np.abs(currents - i_on) < np.abs(currents - i_off)

    def read_margins(self, rows, cols) -> np.ndarray:
        """Relative sensing margins of many crosspoints, batched.

        Same quantity as :meth:`read_margin`, with the matching-state
        reference of every cell taken from one shared block-RHS solve
        per bank.
        """
        _, i_on, i_off = self._reference_currents(rows, cols)
        return (i_on - i_off) / i_on

    def read_margin(self, row: int, col: int) -> float:
        """Relative sensing margin of a crosspoint in its current bank.

        ``(I_on_ref - I_off_ref) / I_on_ref`` with the actual data
        background — the quantity a design would check against the sense
        amplifier's resolution.
        """
        _, i_on, i_off = self._forced_references(row, col)
        return (i_on - i_off) / i_on

    def write_pattern(
        self, rows: np.ndarray, cols: np.ndarray, bits: np.ndarray
    ) -> int:
        """Program many crosspoints; returns how many were accessible.

        Inaccessible crosspoints are skipped (a real memory controller
        would have remapped them; :class:`repro.crossbar.memory.
        CrossbarMemory` provides that remapping layer).
        """
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        bits = np.asarray(bits, dtype=bool)
        if not rows.shape == cols.shape == bits.shape:
            raise ValueError("rows, cols and bits must have matching shapes")
        rows = rows.ravel().astype(int)
        cols = cols.ravel().astype(int)
        bits = bits.ravel()
        n_rows, n_cols = self.shape
        ok = (rows >= 0) & (rows < n_rows) & (cols >= 0) & (cols < n_cols)
        ok[ok] &= self.defects.row_ok[rows[ok]] & self.defects.col_ok[cols[ok]]
        # duplicate crosspoints resolve last-write-wins, as in the
        # sequential loop this replaces; NumPy leaves duplicate-index
        # fancy assignment unordered, so keep each crosspoint's last
        # write explicitly (stable sort by crosspoint, last per run)
        flat = rows[ok].astype(np.int64) * n_cols + cols[ok]
        if flat.size:
            order = np.argsort(flat, kind="stable")
            flat_s = flat[order]
            keep = np.empty(flat_s.size, dtype=bool)
            keep[:-1] = flat_s[1:] != flat_s[:-1]
            keep[-1] = True
            self._states.reshape(-1)[flat_s[keep]] = bits[ok][order][keep]
        return int(ok.sum())

    def stored_bit(self, row: int, col: int) -> bool:
        """Programmed state of one crosspoint (no electrical sensing).

        The ground truth a sensed read is compared against when
        counting sneak-path misreads.
        """
        self._check_access(row, col)
        return bool(self._states[row, col])

    def raw_state(self) -> np.ndarray:
        """Copy of the raw crosspoint bit matrix (unusable positions too)."""
        return self._states.copy()

    # -- reporting ---------------------------------------------------------------

    def bank_cache_stats(self) -> dict:
        """Hit/miss counters of the state-keyed factorization cache."""
        return self._bank_cache.stats()

    def accessible_fraction(self) -> float:
        """Fraction of crosspoints with both wires addressable."""
        return self.defects.crosspoint_yield

    def summary(self) -> dict:
        """Instance-level report."""
        return {
            "code": self.space.name,
            "shape": self.shape,
            "accessible_fraction": self.accessible_fraction(),
            "row_yield": float(self.defects.row_ok.mean()),
            "col_yield": float(self.defects.col_ok.mean()),
            "readout_scheme": self.readout.scheme,
            "bank_wires": self.address_map.wires_per_cave,
        }
