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
Chunks are split into *segments* — maximal runs of same-type accesses —
so reads always sense the state produced by every earlier write, exactly
as the scalar loop does.  Write segments scatter with explicit
keep-last dedupe; read segments group their crosspoints by cave-sized
bank and resolve each bank through a two-level, state-keyed
:class:`~repro.sim.readout.BankCache`:

* ``wl:<digest>`` — the bank state's *margin memo* (per-cell dual
  reference margins already computed for this exact state block);
* ``ib:<digest>`` — the factorized :class:`~repro.sim.readout.
  IdealBank` solver of a forced-reference state block.

Banks that are quiescent between read batches — the common case under
zipfian traffic — hit the cache and skip re-factorization entirely.
Per-instance bank digests are memoized and invalidated only when a
write actually changes a cell value inside the bank.

Equivalence contract
--------------------
The scalar reference (kept with the test oracles) executes the same
semantics one access at a time through
:class:`~repro.crossbar.array.CrossbarArray` on the *same* defect maps
(``read_bit`` + ``read_margin`` per crosspoint).  Batched results are
byte-identical and chunk-size invariant: the margin of a
cell is computed with the exact arithmetic of
:meth:`CrossbarArray.read_margin` (forced-state bank, one solver call
per reference) and only memoized — never approximated — so cached and
fresh values are the same floats.  Cache hit/miss statistics are the
one exception: they depend on chunk boundaries and are reported for
diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro import obs
from repro.crossbar.array import AddressingFault
from repro.crossbar.ecc import decode_blocks
from repro.crossbar.readout import ReadoutError, ReadoutModel
from repro.decoder.addressmap import AddressMap
from repro.sim.readout import BankCache, IdealBank, state_digest
from repro.workload.traces import Trace

#: Default number of histogram bins over the [0, 1] margin range.
DEFAULT_MARGIN_BINS = 20

#: Default bound on distinct cached bank states.
DEFAULT_MAX_BANKS = 256


@dataclass(frozen=True)
class ElectricalReadout:
    """Electrical sensing configuration of a workload run.

    Parameters
    ----------
    model:
        The sneak-path readout model (scheme, resistances, read
        voltage) applied to every crosspoint access.
    resolution:
        Sense amplifier resolution as a relative margin floor in
        ``[0, 1)``: a stored ON bit whose dual-reference margin does
        not exceed it is misread as OFF.  0 keeps sensing ideal (no
        misreads) while still measuring margins.
    margin_bins:
        Histogram bins over the [0, 1] relative-margin range.
    max_banks:
        Bound on distinct bank states kept in the factorization cache
        (LRU beyond it).
    """

    model: ReadoutModel = field(default_factory=ReadoutModel)
    resolution: float = 0.0
    margin_bins: int = DEFAULT_MARGIN_BINS
    max_banks: int = DEFAULT_MAX_BANKS

    def __post_init__(self) -> None:
        if not 0.0 <= self.resolution < 1.0:
            raise ReadoutError(
                f"sense resolution must be in [0, 1), got {self.resolution}"
            )
        if self.margin_bins < 1:
            raise ReadoutError(
                f"need at least one margin bin, got {self.margin_bins}"
            )
        if self.max_banks < 1:
            raise ReadoutError(
                f"bank cache needs at least one slot, got {self.max_banks}"
            )


class _BankEntry:
    """Cached view of one visited bank state: snapshot + margin memo."""

    __slots__ = ("states", "margins")

    def __init__(self, states: np.ndarray) -> None:
        states = states.copy()
        states.setflags(write=False)
        self.states = states
        self.margins: dict[tuple[int, int], float] = {}


def _cell_margin(
    cache: BankCache,
    entry: _BankEntry,
    lr: int,
    lc: int,
    model: ReadoutModel,
    fast: bool,
) -> float:
    """Dual-reference margin of one cell of a cached bank state.

    Bit-identical to :meth:`CrossbarArray.read_margin`: both references
    are fresh forced-state solves of the same arithmetic; the cache
    only memoizes the resulting floats.  ``fast`` (plain
    :class:`ReadoutModel` instances) shares the forced-state solvers
    through the bank cache; otherwise each reference goes through
    ``model.read_current``.
    """
    key = (lr, lc)
    cached = entry.margins.get(key)
    if cached is not None:
        return cached
    forced_on = entry.states.copy()
    forced_on[lr, lc] = True
    forced_off = entry.states.copy()
    forced_off[lr, lc] = False
    if fast:
        bank_on = cache.get(
            b"ib:" + state_digest(forced_on),
            lambda: IdealBank(model.conductances(forced_on)),
        )
        i_on = bank_on.read_current(model.scheme, model.v_read, lr, lc)
        bank_off = cache.get(
            b"ib:" + state_digest(forced_off),
            lambda: IdealBank(model.conductances(forced_off)),
        )
        i_off = bank_off.read_current(model.scheme, model.v_read, lr, lc)
    else:
        i_on = model.read_current(forced_on, lr, lc)
        i_off = model.read_current(forced_off, lr, lc)
    if i_on <= 0:
        raise AddressingFault("non-positive reference current")
    margin = (i_on - i_off) / i_on
    entry.margins[key] = margin
    return margin


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
    err_streams: Sequence[np.random.Generator | None],
    p: float,
    readout: ElectricalReadout,
    collect_reads: bool,
    collect_state: bool,
    collect_margins: bool,
):
    """Segment-ordered vectorised electrical execution of a trace."""
    inst = fleet.instances
    n = trace.accesses
    code = fleet.ecc
    bb = 1 if code is None else code.block_bits
    caps = fleet.address_capacities
    model = readout.model
    res = readout.resolution
    fast = type(model) is ReadoutModel
    side = fleet._maps[0].shape[0]
    side_cols = fleet._maps[0].shape[1]
    per = AddressMap(fleet.spec, fleet.space).wires_per_cave
    nbc = -(-side_cols // per)
    arange_bb = np.arange(bb)

    cache = BankCache(max_banks=readout.max_banks)
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

    read_off = 0
    # Segment-phase accounting mirrors the ideal batched path: clock
    # reads only while telemetry is on, accumulated locally and folded
    # into counters once at the end.
    timed = obs.enabled()
    read_s = write_s = 0.0
    for start in range(0, n, chunk_size):
        t_chunk = perf_counter() if timed else 0.0
        stop = min(start + chunk_size, n)
        a = trace.addresses[start:stop]
        w = trace.is_write[start:stop]
        vw = trace.values[start:stop][w]
        n_w = int(vw.size)
        # global read ordinal of every in-chunk position (writes: unused)
        r_index = read_off + np.cumsum(~w) - 1
        segments = _segments(w)
        clean_blocks_w = (
            np.where(vw[:, None], fleet._enc[1], fleet._enc[0])
            if code is not None and n_w
            else None
        )

        for i in range(inst):
            cap = int(caps[i])
            invalid = a >= cap
            bad = int(invalid.sum())
            if bad:
                failures[i] += bad
                first = start + int(np.argmax(invalid))
                if first < first_fail[i]:
                    first_fail[i] = first

            # error-corrupted write values, drawn per chunk for every
            # write (valid or not) so the stream position is a function
            # of the trace alone — the loop/chunk-invariance contract
            vals_w = blocks_w = None
            if n_w:
                if code is None:
                    vals_w = vw.copy()
                    if err_streams[i] is not None and p > 0:
                        vals_w ^= err_streams[i].random(n_w) < p
                else:
                    blocks_w = clean_blocks_w
                    if err_streams[i] is not None and p > 0:
                        blocks_w = clean_blocks_w ^ (
                            err_streams[i].random((n_w, bb)) < p
                        )

            remap = fleet._remaps[i]
            st = states[i]
            st_flat = st.reshape(-1)
            dig = digests[i]
            w_cursor = 0
            for seg_start, seg_stop, seg_is_write in segments:
                t_seg = perf_counter() if timed else 0.0
                seg_a = a[seg_start:seg_stop]
                seg_valid = seg_a < cap
                if seg_is_write:
                    k = seg_stop - seg_start
                    if code is None:
                        seg_vals = vals_w[w_cursor : w_cursor + k][seg_valid]
                    else:
                        seg_blocks = blocks_w[w_cursor : w_cursor + k][seg_valid]
                    w_cursor += k
                    av = seg_a[seg_valid]
                    if not av.size:
                        if timed:
                            write_s += perf_counter() - t_seg
                        continue
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
                        bids = (cp // side_cols // per) * nbc + (
                            cp % side_cols
                        ) // per
                        for bid in np.unique(bids):
                            dig.pop(int(bid), None)
                    if timed:
                        write_s += perf_counter() - t_seg
                    continue

                # read segment: sense every valid crosspoint through the
                # bank cache, classify against the resolution floor
                ridx = r_index[seg_start:seg_stop]
                vr = np.flatnonzero(seg_valid)
                if not vr.size:
                    if timed:
                        read_s += perf_counter() - t_seg
                    continue
                av = seg_a[vr]
                ridx_v = ridx[vr]
                if code is None:
                    cells = remap[av]
                    pos_bits = ridx_v
                else:
                    cells = remap[av[:, None] * bb + arange_bb].reshape(-1)
                    pos_bits = (ridx_v[:, None] * bb + arange_bb).reshape(-1)
                rr = cells // side_cols
                cc = cells % side_cols
                bids = (rr // per) * nbc + cc // per
                cell_m = np.empty(cells.size)
                order = np.argsort(bids, kind="stable")
                bids_s = bids[order]
                bounds = np.r_[
                    np.flatnonzero(np.r_[True, bids_s[1:] != bids_s[:-1]]),
                    bids_s.size,
                ]
                for gi in range(bounds.size - 1):
                    sel = order[bounds[gi] : bounds[gi + 1]]
                    bid = int(bids_s[bounds[gi]])
                    br, bc = divmod(bid, nbc)
                    r0, c0 = br * per, bc * per
                    block = st[r0 : r0 + per, c0 : c0 + per]
                    d = dig.get(bid)
                    if d is None:
                        d = state_digest(block)
                        dig[bid] = d
                    entry = cache.get(b"wl:" + d, lambda: _BankEntry(block))
                    for t in sel:
                        cell_m[t] = _cell_margin(
                            cache,
                            entry,
                            int(rr[t]) - r0,
                            int(cc[t]) - c0,
                            model,
                            fast,
                        )
                stored = st_flat[cells]
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
                    payload, cpos, unc = decode_blocks(code, sensed_b)
                    corrected[i] += int((cpos >= 0).sum())
                    uncorrectable[i] += int(unc.sum())
                    val = payload[:, 0].copy()
                    val[unc] = False
                    payload_s, _, unc_s = decode_blocks(code, stored_b)
                    val_s = payload_s[:, 0].copy()
                    val_s[unc_s] = False
                    ecc_masked[i] += int(((n_mis > 0) & (val == val_s)).sum())
                    read_bits[i, ridx_v] = val
                if timed:
                    read_s += perf_counter() - t_seg
        read_off += int((~w).sum())
        if timed:
            obs.observe("workload.chunk_s", perf_counter() - t_chunk)

    if timed:
        obs.counter("workload.chunks", -(-n // chunk_size))
        obs.counter("workload.read_s", read_s)
        obs.counter("workload.write_s", write_s)
        # fold the run's bank-cache outcome into the profile (zero
        # hot-path cost: one stats() read at the end)
        stats = cache.stats()
        obs.counter("workload.bank_cache.hits", stats["hits"])
        obs.counter("workload.bank_cache.misses", stats["misses"])
        obs.counter("workload.bank_cache.evictions", stats["evictions"])

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
        cache=cache.stats(),
    )


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
