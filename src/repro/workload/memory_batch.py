"""Batched trace execution over a fleet of defective crossbar memories.

The scalar :class:`~repro.crossbar.memory.CrossbarMemory` resolves one
bit per Python call; evaluating realistic traffic (millions of accesses
over tens of sampled instances) that way is three orders of magnitude
too slow.  :class:`MemoryFleet` replaces that hot path:

* **Sampling** — ``MemoryFleet.sample`` draws N independent crossbar
  instances through :func:`repro.crossbar.defects.sample_layer_mask`,
  one spawned child random stream per instance (the sim engine's
  stream-block discipline), so a fleet is reproducible per
  ``(spec, code, instances, seed)``.
* **Remapping** — each instance's defect-aware logical→physical remap
  table is built once (``np.flatnonzero`` of the working-crosspoint
  matrix in row-major order — exactly the scalar memory's ``a``-th
  working-crosspoint rule), then every access is a table gather.
* **Execution** — whole trace chunks run as vectorised gather/scatter:
  writes scatter through the remap table (deduplicated to the last
  write per address, preserving sequential semantics), reads gather
  from a pre-chunk snapshot with read-after-write forwarding resolved
  by a single sort/searchsorted pass over the chunk.  Under SECDED an
  instance holds its code blocks as packed ``uint64`` words, one row
  per logical block, and a read decodes only the payload bit it returns
  (:func:`repro.crossbar.ecc.decode_first_bits`).

Equivalence contract
--------------------
The scalar reference (kept with the test oracles) executes the same
semantics through the :class:`~repro.crossbar.memory.CrossbarMemory` /
:class:`SecdedCode` APIs, one access per Python iteration.  Batched
results are **byte-identical** to that loop and invariant to
``chunk_size``: each instance's write-error flips are a geometric-gap
Bernoulli process over the global index of its written bits
(:class:`_FlipStream`), which the loop walks one bit at a time with the
same gap rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.codes.base import CodeSpace
from repro.crossbar.defects import DefectMap, sample_layer_mask
from repro.crossbar.ecc import (
    SecdedCode,
    block_words,
    decode_first_bits,
    pack_blocks,
    unpack_blocks,
)
from repro.crossbar.spec import CrossbarSpec
from repro.sim.batch import (
    DEFAULT_MAX_TRIALS_PER_CHUNK,
    parallel_map,
    resolve_rng,
    spawn_block_streams,
    validate_chunk,
)
from repro.sim.engine import MetricSummary
from repro.workload.traces import Trace

#: Seed-sequence tag decorrelating write-error streams from the defect
#: streams when a caller reuses one integer seed for both.
_ERROR_STREAM_TAG = 0xE44C


class _FlipStream:
    """Write-error flips of one instance, sampled by geometric gaps.

    Every bit the instance is asked to write — each bit of a stored
    block, valid address or not, in trace order — has a global index
    and flips independently with probability ``p``.  The gaps between
    flips of such a Bernoulli process are geometric (Devroye 1986,
    ch. X): gap ``k`` is ``floor(log1p(-u_k) / log1p(-p))`` of the k-th
    uniform of the instance's stream, so the stream holds about one
    draw per flip, not one per bit.  Flips drawn past the end of a
    write chunk wait in ``_ahead`` for the next one, so which bits flip
    depends on (seed, instance, global bit index) alone, never on
    where a chunk ends.
    """

    def __init__(self, rng: np.random.Generator, p: float) -> None:
        self._rng = rng
        self._p = p
        with np.errstate(divide="ignore"):  # -inf at p = 1: every gap is 0
            self._log_q = np.log1p(-p)
        self._ahead = np.empty(0)  # global indices of drawn, unwritten flips
        self._last = -1.0  # global index of the last drawn flip
        self._written = 0

    def take(self, bits: int) -> np.ndarray:
        """Offsets (ascending, in ``[0, bits)``) of the flips among the
        next ``bits`` written bits."""
        end = self._written + bits
        while self._last < end:
            draws = int((end - self._last) * self._p * 1.25) + 16
            gaps = np.floor(np.log1p(-self._rng.random(draws)) / self._log_q)
            gaps += 1.0
            positions = np.cumsum(gaps, out=gaps)
            positions += self._last
            self._ahead = np.concatenate((self._ahead, positions))
            self._last = positions[-1]
        cut = int(np.searchsorted(self._ahead, end))
        offsets = self._ahead[:cut].astype(np.int64) - self._written
        self._ahead = self._ahead[cut:]
        self._written = end
        return offsets


def _error_streams(seed: int, instances: int) -> list[np.random.Generator]:
    """One independent write-error stream per instance."""
    root = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence([_ERROR_STREAM_TAG, seed]))
    )
    return spawn_block_streams(root, instances)


def _flip_streams(seed: int, instances: int, p: float) -> list[_FlipStream | None]:
    """Each instance's :class:`_FlipStream`; ``None`` (no draws) at ``p = 0``."""
    if p == 0:
        return [None] * instances
    return [_FlipStream(rng, p) for rng in _error_streams(seed, instances)]


def prepare_workload(
    spec: CrossbarSpec,
    space: CodeSpace,
    *,
    trace: str = "zipfian",
    accesses: int,
    instances: int,
    seed: int = 0,
    write_fraction: float = 0.5,
    ecc: SecdedCode | None = None,
    address_space: int = 0,
) -> tuple["MemoryFleet", Trace]:
    """Sample a fleet and build its trace with the shared sizing rule.

    The construction step of :func:`run_workload`: sample ``instances``
    crossbar instances, size the logical address space from the
    analytic model when ``address_space <= 0`` (see
    :func:`analytic_address_space`), and generate the seeded trace.
    """
    from repro.workload.traces import make_trace

    fleet = MemoryFleet.sample(spec, space, instances, seed=seed, ecc=ecc)
    if address_space <= 0:
        address_space = analytic_address_space(spec, space, ecc)
    return fleet, make_trace(
        trace,
        accesses,
        address_space,
        write_fraction=write_fraction,
        seed=seed,
    )


def run_workload(
    spec: CrossbarSpec,
    space: CodeSpace,
    *,
    trace: str,
    accesses: int,
    instances: int,
    seed: int,
    write_fraction: float,
    parity_bits: int,
    address_space: int,
    error_rate: float,
    readout: str,
    r_on: float,
    r_off: float,
    v_read: float,
    resolution: float,
    chunk_size: int,
) -> tuple["MemoryFleet", Trace, "FleetResult"]:
    """Sample a fleet, build its trace and replay it: one workload run.

    The one run behind both ``repro memsim`` and the ``workload`` sweep
    metric; each caller maps the returned ``(fleet, trace, result)``
    onto its own output.  ``parity_bits`` 0 stores raw bits, otherwise
    blocks of a ``SecdedCode(parity_bits)``.  ``readout`` ``"off"``
    keeps reads ideal; a biasing scheme name resolves them electrically
    with the ``r_on``/``r_off``/``v_read`` technology at sense
    ``resolution``.

    ``prepare_workload`` is looked up on the :mod:`repro.workload`
    package and ``readout`` reaches :meth:`MemoryFleet.run` by keyword,
    the two places perfbench's layer tracer wraps.
    """
    from repro import workload

    fleet, trace_ = workload.prepare_workload(
        spec,
        space,
        trace=trace,
        accesses=accesses,
        instances=instances,
        seed=seed,
        write_fraction=write_fraction,
        ecc=SecdedCode(parity_bits) if parity_bits else None,
        address_space=address_space,
    )
    electrical = None
    if readout != "off":
        from repro.crossbar.readout import ReadoutModel

        electrical = workload.ElectricalReadout(
            model=ReadoutModel(r_on=r_on, r_off=r_off, v_read=v_read, scheme=readout),
            resolution=resolution,
        )
    result = fleet.run(
        trace_,
        chunk_size=chunk_size,
        seed=seed,
        write_error_rate=error_rate,
        readout=electrical,
    )
    return fleet, trace_, result


def analytic_address_space(
    spec: CrossbarSpec,
    space: CodeSpace,
    ecc: SecdedCode | None = None,
) -> int:
    """Address space sized from the analytic effective-bits figure.

    The analytic yield model's expected usable bits (Fig. 7 figure,
    squared for both layers) converted to trace address units — bits in
    raw mode, whole code blocks under ECC.  Instances falling short of
    the analytic promise then show the shortfall as access failures.
    Used by ``repro memsim`` and the ``workload`` sweep evaluator when
    no explicit address space is given.
    """
    from repro.crossbar.yield_model import crossbar_yield

    bits = crossbar_yield(spec, space).effective_bits
    if ecc is not None:
        bits /= ecc.block_bits
    return max(int(bits), 1)


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one trace run over a memory fleet.

    ``per_instance`` maps metric names to ``(instances,)`` arrays;
    ``summary`` holds the Welford-accumulated fleet statistics of the
    same metrics (see :func:`repro.workload.metrics.summarize_fleet`).
    ``read_bits`` (``collect_reads=True``) is the ``(instances, reads)``
    matrix of returned read values — failed reads return False — and
    ``final_state`` (``collect_state=True``) the ``(instances,
    raw_bits)`` stored-bit matrix; both are what the equivalence suite
    compares byte-for-byte against the scalar oracle and across chunk
    sizes.

    Electrical runs (``readout=`` given, see
    :mod:`repro.workload.electrical`) set ``electrical`` and add the
    per-read-bit ``margins`` matrix (``collect_margins=True``; NaN for
    failed reads), the per-instance ``margin_hist`` counts over
    ``margin_edges``, and the ``cache`` statistics of the per-instance
    sense-current memos, summed over the fleet, one lookup per read
    cell: ``misses`` (read cells whose bank state had to be factored,
    one factorization each), ``hits`` (the other read cells),
    ``evictions`` (bank states dropped by the LRU bound), ``banks`` (the
    most states one instance's memo holds) and ``hit_rate``.  They do not
    depend on the thread count, but LRU evictions make them depend on
    chunk boundaries, so ``cache`` is excluded from the byte-identity
    contract.
    """

    trace_name: str
    accesses: int
    reads: int
    writes: int
    instances: int
    ecc: bool
    per_instance: Mapping[str, np.ndarray]
    summary: Mapping[str, MetricSummary]
    read_bits: np.ndarray | None = None
    final_state: np.ndarray | None = None
    electrical: bool = False
    margins: np.ndarray | None = None
    margin_hist: np.ndarray | None = None
    margin_edges: np.ndarray | None = None
    cache: Mapping[str, float] | None = None

    def __getitem__(self, name: str) -> MetricSummary:
        return self.summary[name]


class MemoryFleet:
    """A fleet of sampled defective crossbar instances, executed together.

    Parameters
    ----------
    defect_maps:
        One :class:`DefectMap` per instance.  All instances must share
        one raw geometry (the fleet stores state as a dense matrix).
    ecc:
        Optional SECDED code.  With ECC, trace addresses are *block*
        addresses: each write encodes its data bit into a stored block,
        each read decodes (correcting single bit errors) and returns
        the first payload bit.
    spec:
        Platform specification the maps were sampled from.  Optional
        for ideal runs; required by the electrical read mode
        (``run(readout=...)``), which needs the crosspoint grid and
        the cave-sized bank geometry.  :meth:`sample` records it.
    """

    def __init__(
        self,
        defect_maps: Sequence[DefectMap],
        *,
        ecc: SecdedCode | None = None,
        spec: CrossbarSpec | None = None,
    ) -> None:
        if not defect_maps:
            raise ValueError("a fleet needs at least one instance")
        shapes = {dm.shape for dm in defect_maps}
        if len(shapes) > 1:
            raise ValueError(
                f"instances must share one raw geometry, got {sorted(shapes)}"
            )
        self._maps = list(defect_maps)
        self._ecc = ecc
        self._spec = spec
        self._remaps = [np.flatnonzero(dm.working.ravel()) for dm in self._maps]
        rows, cols = self._maps[0].shape
        self._raw_bits = rows * cols
        self._capacity_bits = np.array([r.size for r in self._remaps], dtype=np.int64)
        if ecc is not None:
            self._enc = np.stack(
                [
                    ecc.encode(np.zeros(ecc.data_bits, dtype=bool)),
                    ecc.encode(np.ones(ecc.data_bits, dtype=bool)),
                ]
            )
            self._enc_words = pack_blocks(ecc, self._enc)

    @classmethod
    def sample(
        cls,
        spec: CrossbarSpec,
        space: CodeSpace,
        instances: int,
        seed: int = 0,
        *,
        ecc: SecdedCode | None = None,
    ) -> "MemoryFleet":
        """Sample ``instances`` crossbar instances, one child stream each.

        Per-instance streams are spawned in instance order from one root
        (:func:`repro.sim.batch.spawn_block_streams`), so instance ``i``
        is the same crossbar regardless of the fleet size sampled around
        it.
        """
        if instances < 1:
            raise ValueError(f"need at least one instance, got {instances}")
        streams = spawn_block_streams(resolve_rng(seed), instances)
        maps = [
            DefectMap(
                row_ok=sample_layer_mask(spec, space, rng),
                col_ok=sample_layer_mask(spec, space, rng),
            )
            for rng in streams
        ]
        return cls(maps, ecc=ecc, spec=spec)

    # -- geometry ------------------------------------------------------------

    @property
    def instances(self) -> int:
        """Number of crossbar instances in the fleet."""
        return len(self._maps)

    @property
    def ecc(self) -> SecdedCode | None:
        """The SECDED code in use, or None in raw-bit mode."""
        return self._ecc

    @property
    def spec(self) -> CrossbarSpec | None:
        """Platform specification the fleet was sampled from, if known."""
        return self._spec

    @property
    def raw_bits(self) -> int:
        """Raw crosspoints per instance."""
        return self._raw_bits

    @property
    def capacity_bits(self) -> np.ndarray:
        """Usable stored bits per instance (working crosspoints)."""
        return self._capacity_bits.copy()

    @property
    def address_capacities(self) -> np.ndarray:
        """Per-instance address-space capacity in trace address units.

        Bits in raw mode; whole code blocks in ECC mode.
        """
        if self._ecc is None:
            return self._capacity_bits.copy()
        return self._capacity_bits // self._ecc.block_bits

    @property
    def payload_capacity_bits(self) -> np.ndarray:
        """Per-instance usable payload bits (after ECC overhead)."""
        if self._ecc is None:
            return self._capacity_bits.copy()
        return (self._capacity_bits // self._ecc.block_bits) * self._ecc.data_bits

    def suggested_address_space(self) -> int:
        """Largest address space every fleet instance can serve."""
        return int(self.address_capacities.min())

    # -- execution -----------------------------------------------------------

    def run(
        self,
        trace: Trace,
        *,
        chunk_size: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
        seed: int = 0,
        write_error_rate: float = 0.0,
        collect_reads: bool = False,
        collect_state: bool = False,
        readout=None,
        collect_margins: bool = False,
    ) -> FleetResult:
        """Execute ``trace`` on every instance; aggregate fleet metrics.

        Parameters
        ----------
        chunk_size:
            Max accesses materialised per vectorised step; bounds
            memory, never changes results.
        seed:
            Root seed of the per-instance write-error streams (ignored
            when ``write_error_rate`` is 0).
        write_error_rate:
            Per-stored-bit flip probability applied at write time
            (noisy writes); ECC mode corrects single-bit flips per
            block and counts double errors as uncorrectable.
        readout:
            Optional :class:`~repro.workload.electrical.
            ElectricalReadout`: resolve every read through the
            sneak-path solver instead of ideal state lookups (misread
            and margin metrics added; requires a fleet sampled with
            ``spec``/``space``).
        collect_margins:
            With ``readout``, attach the per-read-bit margin matrix to
            the result.
        """
        if not 0.0 <= write_error_rate <= 1.0:
            raise ValueError(
                f"write error rate must be in [0, 1], got {write_error_rate}"
            )
        validate_chunk(chunk_size)
        flips = _flip_streams(seed, self.instances, write_error_rate)
        with obs.span(
            "workload.run",
            trace=trace.name,
            accesses=trace.accesses,
            instances=self.instances,
            electrical=readout is not None,
        ) as sp:
            if readout is not None:
                result = self._run_electrical(
                    trace,
                    chunk_size,
                    flips,
                    readout,
                    collect_reads,
                    collect_state,
                    collect_margins,
                )
            else:
                result = self._run_batched(
                    trace,
                    chunk_size,
                    flips,
                    collect_reads,
                    collect_state,
                )
        if obs.enabled():
            total = trace.accesses * self.instances
            obs.counter("workload.accesses", total)
            obs.counter("workload.reads", trace.reads * self.instances)
            obs.counter("workload.writes", trace.writes * self.instances)
            obs.gauge("workload.accesses_per_s", total / max(sp.wall_s, 1e-9))
        return result

    # -- electrical path -------------------------------------------------------

    def _run_electrical(
        self,
        trace: Trace,
        chunk_size: int,
        flips: Sequence[_FlipStream | None],
        readout,
        collect_reads: bool,
        collect_state: bool,
        collect_margins: bool,
    ) -> FleetResult:
        from repro.workload.electrical import ElectricalReadout, run_electrical_batched

        if not isinstance(readout, ElectricalReadout):
            raise TypeError(
                f"readout must be an ElectricalReadout, got {type(readout).__name__}"
            )
        if self._spec is None:
            raise ValueError(
                "electrical read mode needs a fleet sampled with a spec "
                "(use MemoryFleet.sample or pass spec= explicitly)"
            )
        side = self._spec.side_nanowires
        if self._maps[0].shape != (side, side):
            raise ValueError(
                f"defect map shape {self._maps[0].shape} does not match the "
                f"({side}, {side}) crosspoint grid of the given spec"
            )
        return run_electrical_batched(
            self,
            trace,
            chunk_size,
            flips,
            readout,
            collect_reads,
            collect_state,
            collect_margins,
        )

    # -- batched path ---------------------------------------------------------

    def _run_batched(
        self,
        trace: Trace,
        chunk_size: int,
        flips: Sequence[_FlipStream | None],
        collect_reads: bool,
        collect_state: bool,
    ) -> FleetResult:
        inst = self.instances
        n = trace.accesses
        code = self._ecc
        bb = 1 if code is None else code.block_bits
        noisy = flips[0] is not None
        caps = self.address_capacities
        # raw mode: one stored bit per crosspoint; ECC: one packed
        # (W,) uint64 row per logical block
        if code is None:
            state = [np.zeros(self._raw_bits, dtype=bool) for _ in range(inst)]
        else:
            words = block_words(code)
            state = [np.zeros((int(c), words), dtype=np.uint64) for c in caps]
        failures = np.zeros(inst, dtype=np.int64)
        first_fail = np.full(inst, n, dtype=np.int64)
        corrected = np.zeros(inst, dtype=np.int64)
        uncorrectable = np.zeros(inst, dtype=np.int64)
        read_bits = (
            np.zeros((inst, trace.reads), dtype=bool) if collect_reads else None
        )
        read_off = 0
        # Phase accounting (forwarding setup / read gather / write
        # scatter) pays clock reads only while telemetry is on.  Every
        # instance owns its state row and its slots of the per-instance
        # arrays, so a chunk's instances run on parallel_map threads;
        # they return their phase seconds and the counters are recorded
        # here on the calling thread (the registry is not locked).
        timed = obs.enabled()
        forward_s = read_s = write_s = 0.0

        for start in range(0, n, chunk_size):
            t_chunk = perf_counter() if timed else 0.0
            stop = min(start + chunk_size, n)
            length = stop - start
            a = trace.addresses[start:stop]
            w = trace.is_write[start:stop]
            pos = np.arange(length, dtype=np.int64)
            aw, w_pos = a[w], pos[w]
            vw = trace.values[start:stop][w]
            ar, r_pos = a[~w], pos[~w]
            n_w, n_r = aw.size, ar.size

            # Read-after-write forwarding, resolved once per chunk and
            # shared by every instance: key = address * chunk + position
            # orders writes by (address, time); a read's forwarding
            # source is the last smaller key with a matching address.
            order = aw_s = last = None
            hit = np.zeros(n_r, dtype=bool)
            idx = np.zeros(n_r, dtype=np.int64)
            shared_vals_s = shared_blocks_s = None
            if n_w:
                key_w = aw * length + w_pos
                order = np.argsort(key_w)
                aw_s = aw[order]
                last = np.empty(n_w, dtype=bool)
                last[:-1] = aw_s[1:] != aw_s[:-1]
                last[-1] = True
                if n_r:
                    found = np.searchsorted(key_w[order], ar * length + r_pos) - 1
                    hit = found >= 0
                    idx = np.where(hit, found, 0)
                    hit &= aw_s[idx] == ar
                # the uncorrupted write values are instance-invariant;
                # build them once per chunk, not once per instance
                if code is None:
                    if not noisy:
                        shared_vals_s = vw[order]
                else:
                    clean_blocks_w = self._enc_words[vw.astype(np.intp)]
                    if not noisy:
                        shared_blocks_s = clean_blocks_w[order]
            if timed:
                forward_s += perf_counter() - t_chunk

            def run_instance(i: int) -> tuple[float, float]:
                cap = int(caps[i])
                invalid = a >= cap
                bad = int(invalid.sum())
                if bad:
                    failures[i] += bad
                    first = start + int(np.argmax(invalid))
                    if first < first_fail[i]:
                        first_fail[i] = first

                st = state[i]
                # write-side values, error-corrupted per instance; every
                # write (valid or not) takes its bits' flips, so which
                # bits flip is a function of the trace alone
                vals_s = shared_vals_s
                blocks_s = shared_blocks_s
                if noisy and n_w:
                    flipped = flips[i].take(n_w * bb)
                    if code is None:
                        vals = vw.copy()
                        vals[flipped] ^= True
                        vals_s = vals[order]
                    else:
                        blocks = clean_blocks_w.copy()
                        bit = flipped % bb
                        np.bitwise_xor.at(
                            blocks,
                            (flipped // bb, bit // 64),
                            np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64)),
                        )
                        blocks_s = blocks[order]

                # reads: pre-chunk snapshot gather + forwarding overrides
                inst_read_s = inst_write_s = 0.0
                if n_r:
                    t_read = perf_counter() if timed else 0.0
                    val = np.zeros(n_r, dtype=bool)
                    rv = ar < cap
                    if rv.any():
                        arv = ar[rv]
                        if code is None:
                            snap = st[self._remaps[i][arv]]
                            if n_w:
                                h = hit[rv]
                                val_v = np.where(h, vals_s[idx[rv]], snap)
                            else:
                                val_v = snap
                        else:
                            blocks_r = st[arv]
                            if n_w:
                                h = np.flatnonzero(hit[rv])
                                blocks_r[h] = blocks_s[idx[rv][h]]
                            val_v, fixed, unc = decode_first_bits(code, blocks_r)
                            corrected[i] += int(fixed.sum())
                            uncorrectable[i] += int(unc.sum())
                        val[rv] = val_v
                    if read_bits is not None:
                        read_bits[i, read_off : read_off + n_r] = val
                    if timed:
                        inst_read_s = perf_counter() - t_read

                # writes: last write per address wins (sequential
                # semantics), deterministic scatter on unique addresses
                if n_w:
                    t_write = perf_counter() if timed else 0.0
                    wsel = last & (aw_s < cap)
                    if wsel.any():
                        if code is None:
                            st[self._remaps[i][aw_s[wsel]]] = vals_s[wsel]
                        else:
                            st[aw_s[wsel]] = blocks_s[wsel]
                    if timed:
                        inst_write_s = perf_counter() - t_write
                return inst_read_s, inst_write_s

            for inst_read_s, inst_write_s in parallel_map(run_instance, range(inst)):
                read_s += inst_read_s
                write_s += inst_write_s
            read_off += n_r
            if timed:
                obs.observe("workload.chunk_s", perf_counter() - t_chunk)

        if timed:
            obs.counter("workload.chunks", -(-n // chunk_size))
            obs.counter("workload.forward_s", forward_s)
            obs.counter("workload.read_s", read_s)
            obs.counter("workload.write_s", write_s)

        return self._finish(
            trace,
            failures,
            first_fail,
            corrected,
            uncorrectable,
            read_bits,
            self._stored_bits(state) if collect_state else None,
        )

    def _stored_bits(self, state: Sequence[np.ndarray]) -> np.ndarray:
        """``(instances, raw_bits)`` stored-bit matrix of a batched state."""
        if self._ecc is None:
            return np.stack(state)
        # logical block b occupies the b-th run of block_bits working
        # crosspoints, exactly as the scalar memory lays out write_block
        out = np.zeros((self.instances, self._raw_bits), dtype=bool)
        for i, words in enumerate(state):
            cells = self._remaps[i][: words.shape[0] * self._ecc.block_bits]
            out[i, cells] = unpack_blocks(self._ecc, words).reshape(-1)
        return out

    # -- aggregation -----------------------------------------------------------

    def _finish(
        self,
        trace: Trace,
        failures: np.ndarray,
        first_fail: np.ndarray,
        corrected: np.ndarray,
        uncorrectable: np.ndarray,
        read_bits: np.ndarray | None,
        final_state: np.ndarray | None,
        *,
        extra_metrics: Mapping[str, np.ndarray] | None = None,
        margins: np.ndarray | None = None,
        margin_hist: np.ndarray | None = None,
        margin_edges: np.ndarray | None = None,
        cache: Mapping[str, float] | None = None,
        electrical: bool = False,
    ) -> FleetResult:
        from repro.workload.metrics import per_instance_metrics, summarize_fleet

        per_instance = per_instance_metrics(
            effective_capacity_bits=self.payload_capacity_bits,
            raw_bits=self._raw_bits,
            accesses=trace.accesses,
            failures=failures,
            first_failure_index=first_fail,
            corrected=corrected,
            uncorrectable=uncorrectable,
        )
        if extra_metrics:
            per_instance.update(extra_metrics)
        return FleetResult(
            trace_name=trace.name,
            accesses=trace.accesses,
            reads=trace.reads,
            writes=trace.writes,
            instances=self.instances,
            ecc=self._ecc is not None,
            per_instance=per_instance,
            summary=summarize_fleet(per_instance),
            read_bits=read_bits,
            final_state=final_state,
            electrical=electrical,
            margins=margins,
            margin_hist=margin_hist,
            margin_edges=margin_edges,
            cache=cache,
        )
