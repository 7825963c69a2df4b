"""End-to-end crossbar array: decoder addressing + defects + read-out.

:class:`CrossbarArray` is the integration object a downstream user
manipulates: a sampled physical instance of the platform's crossbar
whose bits are accessed through the *full* chain —

1. the crosspoint is selected by its row and column wire indices;
2. the access fails if the sampled instance lost that wire to threshold
   drift or a contact boundary (the defect map);
3. the bit value is sensed *electrically*: the cave-sized bank around
   the crosspoint is solved as a resistor network with the cell forced
   ON and forced OFF, and the measured current is classified to the
   nearer of the two references.

This is the executable form of the paper's claim that the MSPT decoder
"uniquely addresses every nanowire": addressing, yield and read-out are
one consistent pipeline rather than three disconnected models.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import CodeSpace
from repro.crossbar.defects import DefectMap, sample_defect_map
from repro.crossbar.readout import ReadoutModel
from repro.crossbar.spec import CrossbarSpec
from repro.sim.readout import sense_currents, slab_pairs


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

    # -- addressing --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Raw crosspoint grid shape."""
        return self._states.shape

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
            raise AddressingFault(f"row wire {row} is not addressable")
        if not self.defects.col_ok[col]:
            raise AddressingFault(f"column wire {col} is not addressable")

    # -- bit access ----------------------------------------------------------------

    def write_bit(self, row: int, col: int, value: bool) -> None:
        """Program one crosspoint through the decoders."""
        self._check_access(row, col)
        self._states[row, col] = bool(value)

    def _forced_references(
        self, rows, cols
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(stored bits, I_if_on, I_if_off) of a batch of crosspoints.

        Each crosspoint's cave-sized bank is solved with the selected
        cell forced ON and forced OFF (same data background); the
        reference whose forced state equals the stored bit *is* the
        measured current.  Both forced banks of every cell go to
        :func:`~repro.sim.readout.sense_currents`, stacked per bank
        shape in slabs, so a batch reads the same floats as its cells
        read one at a time.  Raises :class:`AddressingFault` on the
        first inaccessible crosspoint.
        """
        rows = np.asarray(rows, dtype=int).ravel()
        cols = np.asarray(cols, dtype=int).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have matching shapes")
        for r, c in zip(rows.tolist(), cols.tolist()):
            self._check_access(r, c)
        per = self.spec.wires_per_cave
        r0 = rows // per * per
        c0 = cols // per * per
        heights = np.minimum(r0 + per, self.shape[0]) - r0
        widths = np.minimum(c0 + per, self.shape[1]) - c0
        model = self.readout
        i_on = np.empty(rows.size)
        i_off = np.empty(rows.size)
        for h, w in sorted(set(zip(heights.tolist(), widths.tolist()))):
            members = np.flatnonzero((heights == h) & (widths == w))
            step = max(1, slab_pairs(h, w) // 2)
            for start in range(0, members.size, step):
                idx = members[start : start + step]
                k = idx.size
                lr = rows[idx] - r0[idx]
                lc = cols[idx] - c0[idx]
                banks = self._states[
                    r0[idx, None, None] + np.arange(h)[:, None],
                    c0[idx, None, None] + np.arange(w),
                ]
                forced = np.concatenate([banks, banks])
                forced[np.arange(k), lr, lc] = True
                forced[np.arange(k, 2 * k), lr, lc] = False
                # a (2k * h, w) view keeps ReadoutModel.conductances'
                # own arithmetic for the whole stack
                g = model.conductances(forced.reshape(-1, w)).reshape(forced.shape)
                currents = sense_currents(
                    g, np.tile(lr, 2), np.tile(lc, 2), model.scheme, model.v_read
                )
                i_on[idx] = currents[:k]
                i_off[idx] = currents[k:]
        if np.any(i_on <= 0):
            raise AddressingFault("non-positive reference current")
        return self._states[rows, cols], i_on, i_off

    def read_bits(self, rows, cols) -> np.ndarray:
        """Sense many crosspoints electrically with dual-reference sensing.

        A fixed current threshold cannot work in a floating-scheme
        crossbar: the sneak-path pedestal depends on the bank's data
        background and can exceed the cell current many times over.
        Real designs therefore compare against *reference* reads; here
        the sense amplifier is modelled as ideal dual-reference sensing
        — the cave-sized bank is solved with the selected cell forced ON
        and forced OFF (same background), and the measured current is
        classified to the nearer reference.
        """
        stored, i_on, i_off = self._forced_references(rows, cols)
        current = np.where(stored, i_on, i_off)
        return np.abs(current - i_on) < np.abs(current - i_off)

    def read_bit(self, row: int, col: int) -> bool:
        """Sense one crosspoint: the one-cell case of :meth:`read_bits`."""
        return bool(self.read_bits([row], [col])[0])

    def read_margins(self, rows, cols) -> np.ndarray:
        """Relative sensing margins of many crosspoints in their banks.

        ``(I_on_ref - I_off_ref) / I_on_ref`` with the actual data
        background — the quantity a design would check against the sense
        amplifier's resolution.
        """
        _, i_on, i_off = self._forced_references(rows, cols)
        return (i_on - i_off) / i_on

    def read_margin(self, row: int, col: int) -> float:
        """Sensing margin of one crosspoint (one-cell :meth:`read_margins`)."""
        return float(self.read_margins([row], [col])[0])

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
            "bank_wires": self.spec.wires_per_cave,
        }
