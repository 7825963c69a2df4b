"""Scalar fleet executor: one access per Python iteration, per instance.

Ideal reads go through ``CrossbarMemory`` / ``SecdedCode`` per access.
Electrical runs write through ``CrossbarArray`` on the same defect maps
and sense each crosspoint with ``dual_reference``: one
``model.read_current`` per forced bank, so a loop model puts its own
solver under the whole run.  Results are byte-identical to
``MemoryFleet.run``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codes.base import CodeSpace
from repro.crossbar.array import CrossbarArray
from repro.crossbar.ecc import EccError
from repro.crossbar.memory import CapacityError, CrossbarMemory
from repro.workload.electrical import _finish_electrical
from repro.workload.memory_batch import FleetResult, _error_streams
from repro.workload.traces import Trace
from tests.oracles.readout import dual_reference


def run_fleet_loop(
    fleet,
    trace,
    *,
    seed=0,
    write_error_rate=0.0,
    readout=None,
    chunk_size=None,
    space=None,
    **kw,
) -> FleetResult:
    """Run ``trace`` on ``fleet`` one access at a time.

    Takes :meth:`MemoryFleet.run`'s arguments, so it can stand in for
    it; ``chunk_size`` is ignored.  An electrical run also needs the
    fleet's address code ``space`` for its per-instance
    ``CrossbarArray``s.  ``kw`` holds the ``collect_*`` flags.
    """
    n, p = fleet.instances, write_error_rate
    flips = [None] * n
    if p > 0:
        flips = [ScalarFlips(rng, p) for rng in _error_streams(seed, n)]
    args = (fleet, trace, flips)
    reads, state = kw.get("collect_reads", False), kw.get("collect_state", False)
    if readout is None:
        return _run_ideal_loop(*args, reads, state)
    margins = kw.get("collect_margins", False)
    return _run_electrical_loop(*args, space, readout, reads, state, margins)


class ScalarFlips:
    """The geometric-gap write-error rule, one written bit at a time.

    Bit ``k`` (the instance's global written-bit index) flips iff it is
    the next flip position; each flip draws one uniform ``u`` and puts
    the next flip ``floor(log1p(-u) / log1p(-p)) + 1`` bits further on.
    """

    def __init__(self, rng: np.random.Generator, p: float) -> None:
        self.rng = rng
        self.log_q = np.log1p(-p)
        self.bit = 0
        self.next = self.gap()

    def gap(self) -> float:
        return float(np.floor(np.log1p(-self.rng.random()) / self.log_q))

    def flip(self) -> bool:
        hit = self.bit == self.next
        if hit:
            self.next += self.gap() + 1
        self.bit += 1
        return hit

    def flips(self, bits: int) -> np.ndarray:
        return np.array([self.flip() for _ in range(bits)], dtype=bool)


def _run_ideal_loop(
    fleet,
    trace: Trace,
    err_streams: Sequence[ScalarFlips | None],
    collect_reads: bool,
    collect_state: bool,
) -> FleetResult:
    inst = fleet.instances
    n = trace.accesses
    code = fleet._ecc
    bb = 1 if code is None else code.block_bits
    failures = np.zeros(inst, dtype=np.int64)
    first_fail = np.full(inst, n, dtype=np.int64)
    corrected = np.zeros(inst, dtype=np.int64)
    uncorrectable = np.zeros(inst, dtype=np.int64)
    read_bits = np.zeros((inst, trace.reads), dtype=bool) if collect_reads else None
    state = np.zeros((inst, fleet._raw_bits), dtype=bool) if collect_state else None

    for i in range(inst):
        mem = CrossbarMemory(fleet._maps[i])
        err = err_streams[i]
        r_off = 0
        for j in range(n):
            addr = int(trace.addresses[j])
            if trace.is_write[j]:
                if code is None:
                    bit = bool(trace.values[j])
                    if err is not None:
                        bit ^= err.flip()
                    try:
                        mem.write(addr, bit)
                    except CapacityError:
                        failures[i] += 1
                        first_fail[i] = min(first_fail[i], j)
                else:
                    payload = np.full(code.data_bits, trace.values[j], bool)
                    block = code.encode(payload)
                    if err is not None:
                        block = block ^ err.flips(bb)
                    try:
                        mem.write_block(addr * bb, block)
                    except CapacityError:
                        failures[i] += 1
                        first_fail[i] = min(first_fail[i], j)
            else:
                if code is None:
                    try:
                        bit = mem.read(addr)
                    except CapacityError:
                        failures[i] += 1
                        first_fail[i] = min(first_fail[i], j)
                        bit = False
                else:
                    try:
                        raw = mem.read_block(addr * bb, bb)
                    except CapacityError:
                        failures[i] += 1
                        first_fail[i] = min(first_fail[i], j)
                        raw = None
                    bit = False
                    if raw is not None:
                        try:
                            data, cpos = code.decode(raw)
                            if cpos >= 0:
                                corrected[i] += 1
                            bit = bool(data[0])
                        except EccError:
                            uncorrectable[i] += 1
                if read_bits is not None:
                    read_bits[i, r_off] = bit
                r_off += 1
        if state is not None:
            state[i] = mem.raw_state().ravel()

    return fleet._finish(
        trace,
        failures,
        first_fail,
        corrected,
        uncorrectable,
        read_bits,
        state,
    )


def _run_electrical_loop(
    fleet,
    trace: Trace,
    err_streams: Sequence[ScalarFlips | None],
    space: CodeSpace,
    readout: ElectricalReadout,
    collect_reads: bool,
    collect_state: bool,
    collect_margins: bool,
):
    """Scalar electrical reference: one CrossbarArray access per step."""
    inst = fleet.instances
    n = trace.accesses
    code = fleet.ecc
    bb = 1 if code is None else code.block_bits
    caps = fleet.address_capacities
    model = readout.model
    res = readout.resolution
    side_cols = fleet._maps[0].shape[1]

    failures = np.zeros(inst, dtype=np.int64)
    first_fail = np.full(inst, n, dtype=np.int64)
    corrected = np.zeros(inst, dtype=np.int64)
    uncorrectable = np.zeros(inst, dtype=np.int64)
    sensed_bits = np.zeros(inst, dtype=np.int64)
    misread_bits = np.zeros(inst, dtype=np.int64)
    misread_reads = np.zeros(inst, dtype=np.int64)
    ecc_masked = np.zeros(inst, dtype=np.int64)
    margins = np.full((inst, trace.reads * bb), np.nan)
    read_bits = np.zeros((inst, trace.reads), dtype=bool)
    final_state = (
        np.zeros((inst, fleet.raw_bits), dtype=bool) if collect_state else None
    )

    for i in range(inst):
        arr = CrossbarArray(fleet.spec, space, readout=model, defects=fleet._maps[i])
        per = fleet.spec.wires_per_cave
        remap = fleet._remaps[i]
        cap = int(caps[i])
        err = err_streams[i]
        r_off = 0
        for j in range(n):
            addr = int(trace.addresses[j])
            if trace.is_write[j]:
                if code is None:
                    bit = bool(trace.values[j])
                    if err is not None:
                        bit ^= err.flip()
                    if addr >= cap:
                        failures[i] += 1
                        first_fail[i] = min(first_fail[i], j)
                    else:
                        r, c = divmod(int(remap[addr]), side_cols)
                        arr.write_bit(r, c, bit)
                else:
                    payload = np.full(code.data_bits, trace.values[j], bool)
                    block = code.encode(payload)
                    if err is not None:
                        block = block ^ err.flips(bb)
                    if addr >= cap:
                        failures[i] += 1
                        first_fail[i] = min(first_fail[i], j)
                    else:
                        for k in range(bb):
                            r, c = divmod(int(remap[addr * bb + k]), side_cols)
                            arr.write_bit(r, c, bool(block[k]))
                continue

            if addr >= cap:
                failures[i] += 1
                first_fail[i] = min(first_fail[i], j)
                value = False
            elif code is None:
                r, c = divmod(int(remap[addr]), side_cols)
                bit, margin = dual_reference(model, arr._states, per, r, c)
                value = bit and (margin > res)
                stored = arr.stored_bit(r, c)
                margins[i, r_off] = margin
                sensed_bits[i] += 1
                if value != stored:
                    misread_bits[i] += 1
                    misread_reads[i] += 1
            else:
                sensed = np.zeros(bb, dtype=bool)
                stored_blk = np.zeros(bb, dtype=bool)
                for k in range(bb):
                    r, c = divmod(int(remap[addr * bb + k]), side_cols)
                    bit, margin = dual_reference(model, arr._states, per, r, c)
                    sensed[k] = bit and (margin > res)
                    stored_blk[k] = arr.stored_bit(r, c)
                    margins[i, r_off * bb + k] = margin
                sensed_bits[i] += bb
                n_mis = int((sensed != stored_blk).sum())
                misread_bits[i] += n_mis
                if n_mis:
                    misread_reads[i] += 1
                try:
                    data, cpos = code.decode(sensed)
                    if cpos >= 0:
                        corrected[i] += 1
                    value = bool(data[0])
                except EccError:
                    uncorrectable[i] += 1
                    value = False
                try:
                    data_s, _ = code.decode(stored_blk)
                    value_s = bool(data_s[0])
                except EccError:
                    value_s = False
                if n_mis and value == value_s:
                    ecc_masked[i] += 1
            read_bits[i, r_off] = value
            r_off += 1
        if final_state is not None:
            final_state[i] = arr.raw_state().reshape(-1)

    return _finish_electrical(
        fleet,
        trace,
        readout,
        failures=failures,
        first_fail=first_fail,
        corrected=corrected,
        uncorrectable=uncorrectable,
        sensed_bits=sensed_bits,
        misread_bits=misread_bits,
        misread_reads=misread_reads,
        ecc_masked=ecc_masked,
        margins=margins,
        read_bits=read_bits if collect_reads else None,
        final_state=final_state,
        collect_margins=collect_margins,
        cache=None,
    )
