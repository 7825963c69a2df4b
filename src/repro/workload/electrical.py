"""Electrical read mode of the workload fleet: trace-driven sensing.

The ideal fleet executor (:mod:`repro.workload.memory_batch`) resolves
reads as state lookups — a stored bit always reads back.  This module
closes the physics loop: every read resolves through the sneak-path
readout solver (:mod:`repro.sim.readout`), so a stored ON bit whose
dual-reference sense margin falls below the sense amplifier's
resolution *misreads* as OFF, and those misreads flow into SECDED
repair and the Welford fleet metrics.

Execution model
---------------
Writes never depend on read outcomes, so sensing is deferred.  Each
chunk's instances run on :func:`~repro.sim.batch.parallel_map` threads,
one instance per task with its own state, memo and error stream, so
results and cache counts are the same at any thread width.  Per
instance and chunk:

1. **Replay.**  The chunk is split into *segments* — maximal runs of
   same-type accesses.  The chunk's surviving writes (the last per
   address within each write segment, valid for the instance) are
   resolved to cells, banks and values once; each write segment then
   scatters its slice of them.  Read segments record, per valid read
   cell, its stored bit and the digest of its bank's actual state (the
   cave-sized bank, digested once and memoized until a write changes
   it).
2. **Lookup.**  A read cell's two references — the bank with the cell
   forced ON and forced OFF — both come from one factorization of the
   bank's actual state (the selected cell joins the driven row to the
   sensed column, so it enters no factor), and so does every other
   cell read from that state.  Each read cell is one lookup in the
   instance's memo, an LRU :class:`~repro.sim.readout.BankCache` of
   bank states bounded by ``max_banks``; an entry keeps the state's
   reference pairs and, while some bank holds the state, its factors.
   So any cell of an unchanged bank costs no factorization; a write
   that changes the bank gives it a new state, and a state no bank
   holds any more keeps only its pairs.  A state without factors
   queues a snapshot of the bank.
3. **Slab factorizations.**  Once the queue holds a slab of states
   (:func:`~repro.sim.readout.slab_states`) or the replay ends, the
   queued states are factored together
   (:func:`~repro.sim.readout.factor_banks`, once per state) and every
   queued cell is read from its state's factors
   (:func:`~repro.sim.readout.bank_currents`).
4. **Classification.**  Margins, misread counts and the SECDED decode
   of payload bit 0 (:func:`~repro.crossbar.ecc.decode_first_bits`)
   run once over all of the chunk's reads.

``WorkloadResult.cache`` reports the memo: ``misses`` are read cells
whose bank state had to be factored (one factorization each),
``hits`` the read cells served from a state already held or queued,
``evictions`` the states the LRU bound dropped, ``banks`` the most
states one instance's memo holds, and ``hit_rate`` is hits over
lookups (read cells).

Equivalence contract
--------------------
The scalar reference (kept with the test oracles) executes the same
semantics one access at a time: it writes through
:class:`~repro.crossbar.array.CrossbarArray` on the *same* defect maps
and senses each crosspoint with one ``reference_currents`` call on its
bank as stored.  Batched results are byte-identical and chunk-size
invariant: a state's factors and a cell's currents depend on that
state and cell alone (fixed-order elementwise arithmetic, no BLAS
reduction), and they are only memoized — never approximated — so
cached and fresh values are the same floats, on every host.  Cache
counts are the one exception: LRU evictions make them depend on chunk
boundaries, so they are reported for diagnostics only.  The engine
takes a plain :class:`ReadoutModel` and has no other sensing path; a
per-cell reference solver plugs into the oracle alone, through its
``reference_currents``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro import obs
from repro.crossbar.array import AddressingFault
from repro.crossbar.ecc import decode_first_bits, pack_blocks
from repro.crossbar.readout import ReadoutError, ReadoutModel, check_resolution
from repro.sim.batch import parallel_map
from repro.sim.readout import (
    BankCache,
    bank_currents,
    factor_banks,
    sense_currents,
    slab_states,
    state_digest,
)
from repro.workload.traces import Trace

#: Default number of histogram bins over the [0, 1] margin range.
DEFAULT_MARGIN_BINS = 20

#: Default bound on distinct bank states per instance memo.
DEFAULT_MAX_BANKS = 256


@dataclass(frozen=True)
class ElectricalReadout:
    """Electrical sensing configuration of a workload run.

    Parameters
    ----------
    model:
        The sneak-path :class:`ReadoutModel` (scheme, resistances, read
        voltage) applied to every crosspoint access.
    resolution:
        Sense amplifier resolution as a relative margin floor in
        ``[0, 1)``: a stored ON bit whose dual-reference margin does
        not exceed it is misread as OFF.  0 keeps sensing ideal (no
        misreads) while still measuring margins.
    margin_bins:
        Histogram bins over the [0, 1] relative-margin range.
    max_banks:
        Bound on distinct bank states kept in each instance's memo of
        bank factors (LRU beyond it).
    """

    model: ReadoutModel = field(default_factory=ReadoutModel)
    resolution: float = 0.0
    margin_bins: int = DEFAULT_MARGIN_BINS
    max_banks: int = DEFAULT_MAX_BANKS

    def __post_init__(self) -> None:
        if not isinstance(self.model, ReadoutModel):
            raise TypeError(
                f"model must be a ReadoutModel, got {type(self.model).__name__}"
            )
        check_resolution(self.resolution)
        if self.margin_bins < 1:
            raise ReadoutError(
                f"need at least one margin bin, got {self.margin_bins}"
            )
        if self.max_banks < 1:
            raise ReadoutError(
                f"bank cache needs at least one slot, got {self.max_banks}"
            )


class _Bank:
    """Memo entry of one bank state: its factors and its cells' references.

    While factored, ``bits`` is the state packed eight cells a byte and
    ``floats`` its row sums, pivots and packed multipliers in one array
    (``None`` for the fixed-line schemes, which need no factors).
    """

    __slots__ = ("shape", "bits", "floats", "pairs", "queued")

    def __init__(self) -> None:
        self.shape: tuple[int, int] | None = None
        self.bits: np.ndarray | None = None
        self.floats: np.ndarray | None = None
        self.pairs: dict[tuple[int, int], tuple[float, float]] = {}
        self.queued = False


class _Sensor:
    """One instance's reference currents: LRU memo, queues, slab factorizations.

    Both references of a read cell (the cell forced ON and forced OFF)
    come from one factorization of the bank's actual state, and so does
    every other cell read from that state.  The memo is an LRU
    :class:`~repro.sim.readout.BankCache` keyed by the bank's state
    digest; each entry keeps a ``{cell: (i_on, i_off)}`` dict and the
    state's factors, which are dropped at the next flush once no bank
    holds the state (:meth:`hold` / :meth:`release`), so they take
    memory for the banks' current states only.  :meth:`slot` hands out
    one slot of :attr:`values` per read cell and counts one lookup: a
    *miss* is a read cell whose bank state must be factored (a state
    the memo holds no factors for), a *hit* any other read cell.
    Misses queue a snapshot of the bank; queued states are factored
    together once the queue holds a slab (or at :meth:`flush`), and
    then every queued cell is read from its state's factors, so the
    memo changes cost, never values.  Factors and reads are those of
    :func:`~repro.sim.readout.sense_currents` on the model's
    conductances, the arithmetic of :meth:`ReadoutModel.reference_currents`.
    """

    def __init__(self, model: ReadoutModel, max_banks: int, slab: int) -> None:
        self.model = model
        self.memo = BankCache(max_banks=max_banks)
        self.slab = slab
        self.hits = 0
        self.misses = 0
        self.values: list[tuple[float, float] | None] = []
        self._pending: dict[tuple[bytes, int, int], int] = {}
        self._cells: list[tuple[int, _Bank, int, int]] = []
        self._states: list[tuple[_Bank, np.ndarray]] = []
        self._held: dict[bytes, int] = {}
        self._released: list[bytes] = []

    def hold(self, digest: bytes) -> None:
        """A bank now holds the state ``digest``."""
        self._held[digest] = self._held.get(digest, 0) + 1

    def release(self, digest: bytes) -> None:
        """A bank left the state ``digest``; with no holder left, the
        state's factors are dropped at the next flush (its pairs stay)."""
        left = self._held[digest] - 1
        if left:
            self._held[digest] = left
        else:
            del self._held[digest]
            self._released.append(digest)

    def slot(self, digest: bytes, block: np.ndarray, lr: int, lc: int) -> int:
        """Slot of the ``(i_on, i_off)`` pair of cell ``(lr, lc)`` of ``block``.

        ``digest`` is the digest of ``block``, the bank's actual state.
        """
        bank = self.memo.get(digest, _Bank)
        pair = bank.pairs.get((lr, lc))
        if pair is not None:
            self.hits += 1
            self.values.append(pair)
            return len(self.values) - 1
        key = (digest, lr, lc)
        slot = self._pending.get(key)
        if slot is None:
            slot = self._pending[key] = len(self.values)
            self.values.append(None)
            self._cells.append((slot, bank, lr, lc))
        if bank.bits is not None or bank.queued:
            self.hits += 1
            return slot
        self.misses += 1
        bank.queued = True
        self._states.append((bank, block.copy()))
        if len(self._states) >= self.slab:
            self.flush()
        return slot

    def flush(self) -> None:
        """Factor every queued state, then read every queued cell."""
        model = self.model
        shapes: dict[tuple[int, int], list] = {}
        for bank, state in self._states:
            shapes.setdefault(state.shape, []).append((bank, state))
        for shape, members in shapes.items():
            states = np.stack([state for _, state in members])
            bits = np.packbits(states.reshape(len(members), -1), axis=1)
            floats = [None] * len(members)
            if model.scheme == "float":
                factors = factor_banks(states, *model.reference_conductances)
                d_row, low, piv = factors[3:]
                floats = np.concatenate([d_row, piv.T, low.T], axis=1)
            for k, (bank, _) in enumerate(members):
                # copies, so an entry never pins its whole slab
                bank.shape = shape
                bank.bits = bits[k].copy()
                bank.floats = None if floats[k] is None else floats[k].copy()
                bank.queued = False
        self._states.clear()

        groups: dict[tuple[int, int], list] = {}
        for item in self._cells:
            groups.setdefault(item[1].shape, []).append(item)
        for (rows, cols), cells in groups.items():
            index: dict[int, int] = {}
            banks = []
            which = []
            for _, bank, _, _ in cells:
                k = index.setdefault(id(bank), len(banks))
                if k == len(banks):
                    banks.append(bank)
                which.append(k)
            packed = np.stack([b.bits for b in banks])
            states = np.unpackbits(packed, axis=1, count=rows * cols).view(bool)
            states = states.reshape(-1, rows, cols)
            lrs = [c[2] for c in cells]
            lcs = [c[3] for c in cells]
            refs = model.reference_conductances
            if model.scheme == "float":
                m = cols - 1
                floats = np.stack([b.floats for b in banks])
                factors = (
                    states,
                    *refs,
                    floats[:, :rows],
                    floats[:, rows + m :].T,
                    floats[:, rows : rows + m].T,
                )
                currents = bank_currents(factors, which, lrs, lcs, model.v_read, refs)
            else:
                # a (k * rows, cols) view keeps ReadoutModel.conductances'
                # own arithmetic for the whole stack
                g = model.conductances(states.reshape(-1, cols)).reshape(states.shape)
                currents = sense_currents(
                    g, lrs, lcs, model.scheme, model.v_read, refs, which=which
                )
            for (slot, bank, lr, lc), pair in zip(cells, zip(*currents.tolist())):
                self.values[slot] = pair
                bank.pairs[(lr, lc)] = pair
        self._cells.clear()
        self._pending.clear()
        for digest in self._released:
            bank = self.memo.peek(digest)
            if bank is not None and digest not in self._held:
                bank.bits = bank.floats = None
        self._released.clear()


def _segments(is_write: np.ndarray) -> list[tuple[int, int, bool]]:
    """Maximal runs of same-type accesses as (start, stop, is_write)."""
    length = is_write.size
    if not length:
        return []
    cuts = np.flatnonzero(np.diff(is_write.view(np.int8))) + 1
    edges = np.r_[0, cuts, length]
    return [
        (int(edges[k]), int(edges[k + 1]), bool(is_write[edges[k]]))
        for k in range(edges.size - 1)
    ]


def run_electrical_batched(
    fleet,
    trace: Trace,
    chunk_size: int,
    flips: Sequence,
    readout: ElectricalReadout,
    collect_reads: bool,
    collect_state: bool,
    collect_margins: bool,
):
    """Deferred, slab-stacked electrical execution of a trace."""
    inst = fleet.instances
    n = trace.accesses
    code = fleet.ecc
    bb = 1 if code is None else code.block_bits
    caps = fleet.address_capacities
    res = readout.resolution
    side = fleet._maps[0].shape[0]
    side_cols = fleet._maps[0].shape[1]
    per = fleet.spec.wires_per_cave
    nbc = -(-side_cols // per)
    arange_bb = np.arange(bb)

    slab = slab_states(min(per, side), min(per, side_cols))
    sensors = [_Sensor(readout.model, readout.max_banks, slab) for _ in range(inst)]
    states = [np.zeros((side, side_cols), dtype=bool) for _ in range(inst)]
    digests: list[dict[int, bytes]] = [{} for _ in range(inst)]

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

    # Instances are independent (own state, memo, error stream and
    # result slots), so a chunk's instances run on parallel_map threads
    # and return their phase seconds; the counters are recorded here on
    # the calling thread.
    timed = obs.enabled()
    read_s = write_s = 0.0
    read_off = 0
    for start in range(0, n, chunk_size):
        t_chunk = perf_counter() if timed else 0.0
        stop = min(start + chunk_size, n)
        a = trace.addresses[start:stop]
        w = trace.is_write[start:stop]
        vw = trace.values[start:stop][w]
        n_w = int(vw.size)
        segments = _segments(w)
        # in-chunk read ordinal before every position: read segment
        # [s, e) holds reads r_before[s] .. r_before[e] - 1
        r_before = np.r_[0, np.cumsum(~w)]
        ar = a[~w]
        aw = a[w]
        # last write per address within each write segment (segments
        # are told apart by the reads before them); trace order kept
        seg_w = r_before[:-1][w]
        order = np.lexsort((aw, seg_w))
        sa, ss = aw[order], seg_w[order]
        last = np.ones(n_w, dtype=bool)
        last[order[:-1]] = (sa[1:] != sa[:-1]) | (ss[1:] != ss[:-1])
        # write-index bounds of each write segment, in trace order
        w_bounds = np.r_[0, np.cumsum([e - s for s, e, is_w in segments if is_w])]
        clean_blocks_w = (
            np.where(vw[:, None], fleet._enc[1], fleet._enc[0])
            if code is not None and n_w
            else None
        )

        def run_instance(i: int) -> tuple[float, float]:
            t_inst = perf_counter() if timed else 0.0
            inst_write_s = 0.0
            cap = int(caps[i])
            invalid = a >= cap
            bad = int(invalid.sum())
            if bad:
                failures[i] += bad
                first = start + int(np.argmax(invalid))
                if first < first_fail[i]:
                    first_fail[i] = first

            # error-corrupted write values: every write (valid or not)
            # takes its bits' flips, so which bits flip is a function of
            # the trace alone — the loop/chunk-invariance contract
            written = vw if code is None else clean_blocks_w
            if n_w and flips[i] is not None:
                written = written.copy()
                written.reshape(-1)[flips[i].take(n_w * bb)] ^= True

            remap = fleet._remaps[i]
            # every surviving valid write of the chunk: its cells, banks
            # and values, and where each write segment's run of them lies
            kept = np.flatnonzero(last & (aw < cap))
            if code is None:
                phys_w = remap[aw[kept]]
            else:
                phys_w = remap[aw[kept][:, None] * bb + arange_bb]
            new_w = written[kept]
            bank_w = (phys_w // side_cols // per) * nbc + (phys_w % side_cols) // per
            seg_lo = np.searchsorted(kept, w_bounds).tolist()
            w_seg = 0
            st = states[i]
            st_flat = st.reshape(-1)
            dig = digests[i]
            sensor = sensors[i]

            # every valid read cell of the chunk, in trace order: its
            # global read ordinal, bank and bank-local coordinates
            valid_r = ar < cap
            v_before = np.r_[0, np.cumsum(valid_r)]
            ridx_v = read_off + np.flatnonzero(valid_r)
            if code is None:
                cells = remap[ar[valid_r]]
                pos_bits = ridx_v
            else:
                cells = remap[ar[valid_r][:, None] * bb + arange_bb].reshape(-1)
                pos_bits = (ridx_v[:, None] * bb + arange_bb).reshape(-1)
            rr = cells // side_cols
            cc = cells % side_cols
            r0s = (rr // per) * per
            c0s = (cc // per) * per
            bids = ((rr // per) * nbc + cc // per).tolist()
            lrs = (rr - r0s).tolist()
            lcs = (cc - c0s).tolist()
            r0s = r0s.tolist()
            c0s = c0s.tolist()
            stored = np.empty(cells.size, dtype=bool)
            slots = np.empty(cells.size, dtype=np.intp)

            for seg_start, seg_stop, seg_is_write in segments:
                if not seg_is_write:
                    # look up every read cell's reference pair under its
                    # bank's state; new states queue up for the slab
                    # factorizations
                    lo = int(v_before[r_before[seg_start]]) * bb
                    hi = int(v_before[r_before[seg_stop]]) * bb
                    stored[lo:hi] = st_flat[cells[lo:hi]]
                    for t in range(lo, hi):
                        r0, c0 = r0s[t], c0s[t]
                        block = st[r0 : r0 + per, c0 : c0 + per]
                        # digested once until a write changes the bank
                        d = dig.get(bids[t])
                        if d is None:
                            d = dig[bids[t]] = state_digest(block)
                            sensor.hold(d)
                        slots[t] = sensor.slot(d, block, lrs[t], lcs[t])
                    continue

                t_seg = perf_counter() if timed else 0.0
                lo_w, hi_w = seg_lo[w_seg], seg_lo[w_seg + 1]
                w_seg += 1
                if hi_w > lo_w:
                    phys = phys_w[lo_w:hi_w]
                    new = new_w[lo_w:hi_w]
                    changed = st_flat[phys] != new
                    if changed.any():
                        st_flat[phys] = new
                        for bid in set(bank_w[lo_w:hi_w][changed].tolist()):
                            old = dig.pop(bid, None)
                            if old is not None:
                                sensor.release(old)
                if timed:
                    inst_write_s += perf_counter() - t_seg

            # resolve the chunk's margins, classify and decode once
            sensor.flush()
            currents = np.array(sensor.values).reshape(-1, 2)
            sensor.values.clear()
            i_on = currents[slots, 0]
            i_off = currents[slots, 1]
            if np.any(i_on <= 0):
                raise AddressingFault("non-positive reference current")
            cell_m = (i_on - i_off) / i_on
            sensed = stored & (cell_m > res)
            margins[i, pos_bits] = cell_m
            sensed_bits[i] += int(cells.size)
            if code is None:
                mis = sensed != stored
                n_mis = int(mis.sum())
                misread_bits[i] += n_mis
                misread_reads[i] += n_mis
                read_bits[i, ridx_v] = sensed
            else:
                sensed_b = sensed.reshape(-1, bb)
                stored_b = stored.reshape(-1, bb)
                mis_b = sensed_b != stored_b
                n_mis = mis_b.sum(axis=1)
                misread_bits[i] += int(mis_b.sum())
                misread_reads[i] += int((n_mis > 0).sum())
                val, fixed, unc = decode_first_bits(code, pack_blocks(code, sensed_b))
                corrected[i] += int(fixed.sum())
                uncorrectable[i] += int(unc.sum())
                val_s = decode_first_bits(code, pack_blocks(code, stored_b))[0]
                ecc_masked[i] += int(((n_mis > 0) & (val == val_s)).sum())
                read_bits[i, ridx_v] = val
            if not timed:
                return 0.0, 0.0
            # read phase: everything but the write segments
            return perf_counter() - t_inst - inst_write_s, inst_write_s

        for inst_read_s, inst_write_s in parallel_map(run_instance, range(inst)):
            read_s += inst_read_s
            write_s += inst_write_s
        read_off += int(ar.size)
        if timed:
            obs.observe("workload.chunk_s", perf_counter() - t_chunk)

    cache = _cache_stats(sensors)
    if timed:
        obs.counter("workload.chunks", -(-n // chunk_size))
        obs.counter("workload.read_s", read_s)
        obs.counter("workload.write_s", write_s)
        obs.counter("workload.bank_cache.hits", cache["hits"])
        obs.counter("workload.bank_cache.misses", cache["misses"])
        obs.counter("workload.bank_cache.evictions", cache["evictions"])

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
        final_state=(
            np.stack([s.reshape(-1) for s in states]) if collect_state else None
        ),
        collect_margins=collect_margins,
        cache=cache,
    )


def _cache_stats(sensors: Sequence[_Sensor]) -> dict:
    """Fleet totals of the per-instance sense-current memos.

    One lookup per read cell: ``misses`` counts read cells whose bank
    state had to be factored (one factorization each), ``hits`` the
    others, ``evictions`` bank states dropped by the LRU bound;
    ``banks`` is the most states any one instance's memo holds (each
    memo is bounded by ``max_banks``).
    """
    hits = sum(s.hits for s in sensors)
    misses = sum(s.misses for s in sensors)
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "evictions": sum(s.memo.evictions for s in sensors),
        "banks": max((len(s.memo) for s in sensors), default=0),
        "hit_rate": hits / total if total else 0.0,
    }


def _finish_electrical(
    fleet,
    trace: Trace,
    readout: ElectricalReadout,
    *,
    failures: np.ndarray,
    first_fail: np.ndarray,
    corrected: np.ndarray,
    uncorrectable: np.ndarray,
    sensed_bits: np.ndarray,
    misread_bits: np.ndarray,
    misread_reads: np.ndarray,
    ecc_masked: np.ndarray,
    margins: np.ndarray,
    read_bits: np.ndarray | None,
    final_state: np.ndarray | None,
    collect_margins: bool,
    cache: dict | None,
):
    """Aggregation shared with the scalar oracle (identical math)."""
    from repro.workload.metrics import electrical_metrics

    inst = fleet.instances
    bins = readout.margin_bins
    margin_min = np.ones(inst)
    margin_mean = np.zeros(inst)
    margin_hist = np.zeros((inst, bins), dtype=np.int64)
    edges = np.linspace(0.0, 1.0, bins + 1)
    for i in range(inst):
        vals = margins[i][~np.isnan(margins[i])]
        if vals.size:
            margin_min[i] = float(vals.min())
            margin_mean[i] = math.fsum(vals) / vals.size
            margin_hist[i] = np.histogram(vals, bins=bins, range=(0.0, 1.0))[0]

    extra = electrical_metrics(
        sensed_bits=sensed_bits,
        misread_bits=misread_bits,
        misread_reads=misread_reads,
        ecc_masked_misreads=ecc_masked,
        margin_min=margin_min,
        margin_mean=margin_mean,
    )
    return fleet._finish(
        trace,
        failures,
        first_fail,
        corrected,
        uncorrectable,
        read_bits,
        final_state,
        extra_metrics=extra,
        margins=margins if collect_margins else None,
        margin_hist=margin_hist,
        margin_edges=edges,
        cache=cache,
        electrical=True,
    )
