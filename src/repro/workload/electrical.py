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

1. **Replay.** The chunk is split into *segments* — maximal runs of
   same-type accesses.  Write segments scatter with explicit keep-last
   dedupe; read segments record, per valid read cell, its stored bit
   and the digests of its two forced states (the cave-sized bank with
   the cell forced ON and forced OFF; one of them is the bank's own
   state, whose digest is memoized until a write changes the bank).
2. **Lookup.** Each reference is looked up in the instance's memo of
   sense currents, keyed by (forced-state digest, cell): an LRU
   :class:`~repro.sim.readout.BankCache` of forced states bounded by
   ``max_banks``.  Keying by forced state means that after a write
   toggles a hot cell, reading it again costs no solve — both forced
   states were seen before.  Misses queue a snapshot of their forced
   state.
3. **Slab solves.** Once the queue holds a slab
   (:func:`~repro.sim.readout.slab_pairs`) or the replay ends, the
   queued misses go to :func:`~repro.sim.readout.sense_currents` as one
   stack: one ``np.linalg.solve`` call per slab instead of one per
   reference.
4. **Classification.** Margins, misread counts and the SECDED decode
   of payload bit 0 (:func:`~repro.crossbar.ecc.decode_first_bits`)
   run once over all of the chunk's reads.

``WorkloadResult.cache`` reports the memo: ``hits`` are references
served without a solve, ``misses`` the solved ones, ``evictions`` the
forced states the LRU bound dropped, ``banks`` the most forced states
one instance's memo holds, and ``hit_rate`` is hits over lookups.

Equivalence contract
--------------------
The scalar reference (kept with the test oracles) executes the same
semantics one access at a time: it writes through
:class:`~repro.crossbar.array.CrossbarArray` on the *same* defect maps
and senses each crosspoint with one ``read_current`` per forced bank,
the per-cell case of :meth:`CrossbarArray.read_bits`.  Batched results are
byte-identical and chunk-size invariant: every reference current is
computed with the exact arithmetic of :meth:`ReadoutModel.read_current`
(the stacked kernel runs one LAPACK ``gesv`` per system, and
``read_current`` is its one-cell call) and only memoized — never
approximated — so cached and fresh values are the same floats.  Cache
counts are the one exception: LRU evictions make them depend on chunk
boundaries, so they are reported for diagnostics only.  The engine
takes a plain :class:`ReadoutModel` and has no other sensing path; a
per-cell reference solver plugs into the oracle alone, through its
``read_current``.
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
from repro.sim.readout import BankCache, sense_currents, slab_pairs, state_digest
from repro.workload.traces import Trace

#: Default number of histogram bins over the [0, 1] margin range.
DEFAULT_MARGIN_BINS = 20

#: Default bound on distinct forced bank states per instance memo.
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
        Bound on distinct forced bank states kept in each instance's
        sense-current memo (LRU beyond it).
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


class _Sensor:
    """One instance's sense currents: LRU memo, miss queue, slab solves.

    A sense current is a pure function of the forced bank state and the
    selected cell, so it is memoized per ``(forced-state digest, cell)``
    — an LRU :class:`~repro.sim.readout.BankCache` of forced states,
    each holding a ``{cell: current}`` dict.  :meth:`slot` hands out one
    slot of :attr:`values` per reference; misses queue a snapshot of
    the forced state and are solved together once the queue holds a
    slab (or at :meth:`flush`), so the memo changes cost, never values.
    Every miss is solved by :func:`~repro.sim.readout.sense_currents`
    on the model's conductances, the arithmetic of
    :meth:`ReadoutModel.read_current`.
    """

    def __init__(self, model: ReadoutModel, max_banks: int, slab: int) -> None:
        self.model = model
        self.memo = BankCache(max_banks=max_banks)
        self.slab = slab
        self.hits = 0
        self.misses = 0
        self.values: list[float] = []
        self._pending: dict[tuple[bytes, int, int], int] = {}
        self._queue: list[tuple[int, np.ndarray, int, int, dict]] = []

    def slot(self, digest: bytes, block: np.ndarray, lr: int, lc: int) -> int:
        """Slot of the current of cell ``(lr, lc)`` in forced state ``block``."""
        entry = self.memo.get(digest, dict)
        value = entry.get((lr, lc))
        if value is not None:
            self.hits += 1
            self.values.append(value)
            return len(self.values) - 1
        key = (digest, lr, lc)
        slot = self._pending.get(key)
        if slot is not None:
            self.hits += 1
            return slot
        slot = len(self.values)
        self.values.append(math.nan)
        self._pending[key] = slot
        self._queue.append((slot, block.copy(), lr, lc, entry))
        if len(self._queue) >= self.slab:
            self.flush()
        return slot

    def flush(self) -> None:
        """Solve every queued miss: one stacked solve per bank shape."""
        queue = self._queue
        if not queue:
            return
        model = self.model
        groups: dict[tuple[int, int], list[int]] = {}
        for k, item in enumerate(queue):
            groups.setdefault(item[1].shape, []).append(k)
        currents = np.empty(len(queue))
        for (_, cols), members in groups.items():
            forced = np.stack([queue[k][1] for k in members])
            # a (k * rows, cols) view keeps ReadoutModel.conductances'
            # own arithmetic for the whole stack
            g = model.conductances(forced.reshape(-1, cols))
            currents[members] = sense_currents(
                g.reshape(forced.shape),
                [queue[k][2] for k in members],
                [queue[k][3] for k in members],
                model.scheme,
                model.v_read,
            )
        for (slot, _, lr, lc, entry), value in zip(queue, currents):
            value = float(value)
            self.values[slot] = value
            entry[(lr, lc)] = value
        self.misses += len(queue)
        queue.clear()
        self._pending.clear()


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

    slab = slab_pairs(min(per, side), min(per, side_cols))
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
            vals_w, blocks_w = (written, None) if code is None else (None, written)

            remap = fleet._remaps[i]
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
            on_slot = np.empty(cells.size, dtype=np.intp)
            off_slot = np.empty(cells.size, dtype=np.intp)

            w_cursor = 0
            for seg_start, seg_stop, seg_is_write in segments:
                if not seg_is_write:
                    # record both forced-state references of every read
                    # cell; misses queue up for the slab solves
                    lo = int(v_before[r_before[seg_start]]) * bb
                    hi = int(v_before[r_before[seg_stop]]) * bb
                    for t in range(lo, hi):
                        bid, lr, lc = bids[t], lrs[t], lcs[t]
                        r0, c0 = r0s[t], c0s[t]
                        block = st[r0 : r0 + per, c0 : c0 + per]
                        d = dig.get(bid)
                        if d is None:
                            d = state_digest(block)
                            dig[bid] = d
                        bit = bool(block[lr, lc])
                        flipped = block.copy()
                        flipped[lr, lc] = not bit
                        same = sensor.slot(d, block, lr, lc)
                        other = sensor.slot(state_digest(flipped), flipped, lr, lc)
                        stored[t] = bit
                        on_slot[t], off_slot[t] = (
                            (same, other) if bit else (other, same)
                        )
                    continue

                t_seg = perf_counter() if timed else 0.0
                seg_valid = a[seg_start:seg_stop] < cap
                k = seg_stop - seg_start
                if code is None:
                    seg_vals = vals_w[w_cursor : w_cursor + k][seg_valid]
                else:
                    seg_blocks = blocks_w[w_cursor : w_cursor + k][seg_valid]
                w_cursor += k
                av = a[seg_start:seg_stop][seg_valid]
                if av.size:
                    # last write per address wins within the run
                    order = np.argsort(av, kind="stable")
                    av_s = av[order]
                    keep = np.empty(av_s.size, dtype=bool)
                    keep[:-1] = av_s[1:] != av_s[:-1]
                    keep[-1] = True
                    if code is None:
                        phys = remap[av_s[keep]]
                        new = seg_vals[order][keep]
                    else:
                        phys = remap[
                            av_s[keep][:, None] * bb + arange_bb
                        ].reshape(-1)
                        new = seg_blocks[order][keep].reshape(-1)
                    changed = st_flat[phys] != new
                    if changed.any():
                        st_flat[phys] = new
                        cp = phys[changed]
                        wb = (cp // side_cols // per) * nbc + (cp % side_cols) // per
                        for bid in np.unique(wb).tolist():
                            dig.pop(bid, None)
                if timed:
                    inst_write_s += perf_counter() - t_seg

            # resolve the chunk's margins, classify and decode once
            sensor.flush()
            currents = np.array(sensor.values)
            sensor.values.clear()
            i_on = currents[on_slot]
            i_off = currents[off_slot]
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

    ``hits`` counts references served without a solve, ``misses`` the
    solved ones, ``evictions`` forced states dropped by the LRU bound;
    ``banks`` is the most forced states any one instance's memo holds
    (each memo is bounded by ``max_banks``).
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
