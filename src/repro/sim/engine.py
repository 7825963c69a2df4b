"""Batched Monte-Carlo engine: every trial lives on a leading array axis.

The legacy simulators (the seed's cave-yield and stochastic-decoder
loops, now test oracles) evaluate one trial per Python-loop
iteration.  This module evaluates *all* trials of a chunk in single
NumPy calls on a leading ``(trials, ...)`` axis, which is 20-50x faster
and scales to millions of samples with bounded memory:

* :class:`MonteCarloEngine` drives any :class:`TrialKernel` through the
  chunk/stream-block plan of :mod:`repro.sim.batch` and aggregates
  per-trial metrics with the Welford accumulators of
  :mod:`repro.sim.accumulators`;
* :class:`CaveYieldKernel` is the batched Sec. 6.1 cave-yield sampler
  (threshold-voltage and boundary-offset realisations);
* :class:`RandomCodesKernel` / :class:`RandomContactsKernel` are the
  batched DeHon [6] / Hogg [8] stochastic-decoder baselines, drawing
  from a single shared stream so they reproduce the legacy per-trial
  loops draw-for-draw.

Reproducibility contract
------------------------
Spawn-mode kernels (cave yield) draw from one child generator per
fixed-size stream block, so results depend only on the seed and the
``stream_block`` — not on ``max_trials_per_chunk``, and not on how
many threads evaluate a chunk's blocks (:func:`repro.sim.batch.
parallel_map`).  Every block is reduced to its per-metric ``(count,
mean, M2)`` state by one helper, and the states fold in block order:
:meth:`MonteCarloEngine.run` folds them as it goes, a shard
(:func:`run_block_moments`) writes them, and :mod:`repro.dist.merge`
folds the written states with the same call, so a merged job equals
the single-host run by construction.  Shared-mode kernels draw from
the caller's generator in trial order, so they are chunk-invariant
*and* bit-compatible with the legacy loops for the same seed; they run
serially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter

import numpy as np

from repro import obs
from repro.sim.accumulators import MomentSet, State, StreamingMoments, batch_state
from repro.sim.batch import (
    DEFAULT_MAX_TRIALS_PER_CHUNK,
    DEFAULT_STREAM_BLOCK,
    Chunk,
    block_sizes,
    parallel_map,
    plan_chunks,
    resolve_rng,
    spawn_block_streams,
    total_blocks,
)

# -- engine core ---------------------------------------------------------------


class TrialKernel:
    """Vectorised sampler of one simulation, trial axis leading.

    Subclasses define

    * ``metrics`` — names of the per-trial scalars returned;
    * ``stream_mode`` — ``"spawn"`` (one child generator per stream
      block; for kernels that interleave several draw calls per trial)
      or ``"shared"`` (draw sequentially from the caller's generator;
      only for kernels whose draws concatenate across calls exactly
      like the per-trial legacy loop);
    * :meth:`sample`, which must be re-entrant: the engine calls a
      spawn-mode kernel's :meth:`sample` from several threads at once
      (one stream block each), so it keeps no per-call scratch state
      on the instance.
    """

    metrics: tuple[str, ...] = ()
    stream_mode: str = "spawn"

    def sample(self, rng: np.random.Generator, trials: int) -> dict:
        """Return ``{metric: (trials,) float array}`` for one batch."""
        raise NotImplementedError


def _sample_block(
    kernel: TrialKernel, keep: bool, rng: np.random.Generator, trials: int
) -> tuple[dict[str, State], float, dict | None]:
    """One block: its per-metric ``(count, mean, M2)`` states, the wall
    seconds of its kernel call (timing never touches numerics), and its
    raw batch when ``keep``."""
    t0 = perf_counter()
    batch = kernel.sample(rng, trials)
    block_s = perf_counter() - t0
    states = {name: batch_state(batch[name]) for name in kernel.metrics}
    return states, block_s, batch if keep else None


def _run_chunk(
    kernel: TrialKernel,
    root: np.random.Generator,
    chunk: Chunk,
    stream_block: int,
    keep: bool = False,
) -> list[tuple[dict[str, State], float, dict | None]]:
    """The blocks of one chunk, in block order (see :func:`_sample_block`).

    A spawn-mode chunk spawns one child stream per block from ``root``
    and runs the blocks on up to usable_cpus() threads; a shared-mode
    chunk is one kernel call drawing from ``root`` itself.
    """
    if kernel.stream_mode == "shared":
        return [_sample_block(kernel, keep, root, chunk.trials)]
    widths = block_sizes(chunk, stream_block)
    streams = spawn_block_streams(root, len(widths))
    return parallel_map(partial(_sample_block, kernel, keep), streams, widths)


def _record_blocks(block_seconds: list[float], trials: int, wall_s: float) -> None:
    """Block telemetry of one run, recorded on the calling thread (the
    registry is not locked)."""
    for block_s in block_seconds:
        obs.observe("sim.block_s", block_s)
    obs.counter("sim.trials", trials)
    obs.counter("sim.blocks", len(block_seconds))
    obs.gauge("sim.trials_per_s", trials / max(wall_s, 1e-9))


@dataclass(frozen=True)
class MetricSummary:
    """Aggregated statistics of one per-trial metric."""

    samples: int
    mean: float
    std: float
    stderr: float

    @classmethod
    def from_moments(cls, moments: StreamingMoments) -> "MetricSummary":
        return cls(
            samples=moments.count,
            mean=moments.mean,
            std=moments.std,
            stderr=moments.stderr,
        )


@dataclass(frozen=True)
class SimResult:
    """Outcome of one engine run: summaries plus optional raw trials."""

    samples: int
    metrics: dict
    raw: dict | None = None

    def __getitem__(self, name: str) -> MetricSummary:
        return self.metrics[name]


class MonteCarloEngine:
    """Chunked, stream-reproducible driver for a :class:`TrialKernel`.

    Parameters
    ----------
    kernel:
        The vectorised per-trial sampler.
    max_trials_per_chunk:
        Upper bound on trials materialised at once (rounded down to
        whole stream blocks); bounds memory, never changes results.
    stream_block:
        Trials per child random stream and per kernel call in spawn
        mode.  Part of the reproducibility contract: changing it
        changes which child stream a trial draws from.
    """

    def __init__(
        self,
        kernel: TrialKernel,
        *,
        max_trials_per_chunk: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
        stream_block: int = DEFAULT_STREAM_BLOCK,
    ) -> None:
        self.kernel = kernel
        self.max_trials_per_chunk = max_trials_per_chunk
        self.stream_block = stream_block

    def run(
        self,
        samples: int,
        rng: np.random.Generator | int | None = 0,
        *,
        collect: bool = False,
    ) -> SimResult:
        """Simulate ``samples`` trials; optionally keep raw per-trial data.

        ``rng`` is an integer seed (engine builds a fast SFC64 root) or
        a ready :class:`numpy.random.Generator` (used as-is — required
        for bit-compatibility with the legacy shared-stream loops).
        """
        chunks = plan_chunks(samples, self.max_trials_per_chunk, self.stream_block)
        samples = chunks[-1].stop
        root = resolve_rng(rng)
        acc = MomentSet(self.kernel.metrics)
        raw: dict | None = (
            {name: [] for name in self.kernel.metrics} if collect else None
        )
        block_seconds = []
        with obs.span(
            "sim.engine.run", kernel=type(self.kernel).__name__, samples=samples
        ) as sp:
            for chunk in chunks:
                blocks = _run_chunk(
                    self.kernel, root, chunk, self.stream_block, collect
                )
                for states, block_s, batch in blocks:
                    block_seconds.append(block_s)
                    acc.fold(states)
                    if raw is not None:
                        for name in self.kernel.metrics:
                            raw[name].append(np.asarray(batch[name]))
        if obs.enabled():
            _record_blocks(block_seconds, samples, sp.wall_s)
            obs.counter("sim.chunks", len(chunks))

        metrics = {
            name: MetricSummary.from_moments(acc[name])
            for name in self.kernel.metrics
        }
        if raw is not None:
            raw = {name: np.concatenate(parts) for name, parts in raw.items()}
        return SimResult(samples=samples, metrics=metrics, raw=raw)


def run_block_moments(
    kernel: TrialKernel,
    samples: int,
    rng: np.random.Generator | int | None = 0,
    *,
    block_start: int = 0,
    block_stop: int | None = None,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> list[dict[str, State]]:
    """Per-block moment states of a contiguous stream-block range.

    The shard-execution primitive of :mod:`repro.dist`: a spawn-mode
    kernel's trials are owned by fixed stream blocks, so any shard can
    evaluate blocks ``[block_start, block_stop)`` of a ``samples``-trial
    simulation and report, per block and per metric, the block's
    ``(count, mean, M2)`` state — computed by the helper
    :meth:`MonteCarloEngine.run` uses.  Folding the states of *all*
    blocks in global block order is the fold of the single-host run,
    for any shard count.

    ``Generator.spawn`` hands out children in spawn order, so the
    shard spawns and discards the first ``block_start`` children of the
    root, then runs its blocks as one chunk: block ``i`` draws from the
    same child stream it would in a single-host run.  Shared-stream kernels draw
    sequentially from one caller generator and therefore cannot be
    sharded; they are rejected.
    """
    if kernel.stream_mode != "spawn":
        raise ValueError(
            "only spawn-mode kernels can be sharded by stream block; "
            f"kernel {type(kernel).__name__} uses shared-stream draws"
        )
    blocks = total_blocks(samples, stream_block)
    stop = blocks if block_stop is None else int(block_stop)
    start = int(block_start)
    if not 0 <= start < stop <= blocks:
        raise ValueError(
            f"block range [{start}, {stop}) out of order or outside the "
            f"{blocks} blocks of {samples} samples"
        )
    block = int(stream_block)
    root = resolve_rng(rng)
    spawn_block_streams(root, start)  # the streams of earlier shards' blocks
    chunk = Chunk(start * block, min(stop * block, int(samples)) - start * block)
    with obs.span(
        "sim.run_block_moments",
        kernel=type(kernel).__name__,
        blocks=stop - start,
    ) as sp:
        # serial inside `shard launch` workers (usable_cpus() is 1 in a
        # multiprocessing child); a shard run on its own host uses its
        # CPUs like the single-host engine does
        results = _run_chunk(kernel, root, chunk, block)
    if obs.enabled():
        _record_blocks([block_s for _, block_s, _ in results], chunk.trials, sp.wall_s)
    return [states for states, _, _ in results]


# -- cave-yield kernel (Sec. 6.1 Monte-Carlo cross-check) ----------------------


class CaveYieldKernel(TrialKernel):
    """Batched half-cave yield sampler: addressability and boundary draws.

    One trial realises every nanowire's electrical addressability and
    every contact-group boundary's alignment offset, then counts the
    nanowires that are electrically addressable, geometrically
    unambiguous, and both.

    A wire is electrically addressable when each of its doping regions
    lands inside the addressability window of
    :class:`repro.device.threshold.LevelScheme`, ``|VT - nominal| <=
    window_halfwidth``.  The regions' VT errors are independent
    Gaussians, so that event has probability ``decoder.
    wire_probabilities`` — the product of the regions' window integrals
    of Sec. 6.1 — and one uniform per wire samples it exactly: ``u <
    p``.  (The VT-space sampler that draws one normal per region is the
    test oracle of this law.)

    One kernel is cached per decoder (``decoder.montecarlo_kernel``) and
    shared by every caller, so draw buffers are local to each call,
    never kept on the instance.
    """

    metrics = ("cave", "electrical", "geometric")
    stream_mode = "spawn"

    def __init__(self, decoder) -> None:
        self.decoder = decoder
        rules = decoder.rules
        self.wire_p = decoder.wire_probabilities
        self.pitch = rules.nanowire_pitch_nm
        self.halfzone = rules.contact_gap_nm / 2.0 + rules.alignment_tolerance_nm
        self.tolerance = rules.alignment_tolerance_nm
        self.wires = np.arange(decoder.nanowires)
        sizes = decoder.group_plan.group_sizes
        self.boundaries = np.cumsum(sizes[:-1]) * self.pitch

    def electrical_masks(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """``(trials, N)`` boolean electrical addressability masks."""
        return rng.random((trials, self.wire_p.size)) < self.wire_p

    def geometric_masks(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """``(trials, N)`` boolean contact-boundary survival masks.

        Wire ``i`` is centred at ``(i + 0.5) * pitch`` and dies when its
        centre lies within ``halfzone`` of an offset boundary, so each
        boundary kills the contiguous index range ``lo..hi``: the masks
        compare integer wire indices, never per-wire distances.
        """
        offsets = rng.uniform(
            -self.tolerance, self.tolerance, size=(trials, self.boundaries.size)
        )
        mask = np.ones((trials, self.wires.size), dtype=bool)
        for b in range(self.boundaries.size):
            position = (self.boundaries[b] + offsets[:, b]) / self.pitch - 0.5
            lo = np.ceil(position - self.halfzone / self.pitch)[:, None]
            hi = np.floor(position + self.halfzone / self.pitch)[:, None]
            mask &= (self.wires < lo) | (self.wires > hi)
        return mask

    def sample(self, rng: np.random.Generator, trials: int) -> dict:
        e_mask = self.electrical_masks(rng, trials)
        g_mask = self.geometric_masks(rng, trials)
        return {
            "cave": (e_mask & g_mask).mean(axis=1),
            "electrical": e_mask.mean(axis=1),
            "geometric": g_mask.mean(axis=1),
        }


# -- stochastic-decoder baseline kernels ([6], [8]) ----------------------------


def _unique_fraction_rows(ids: np.ndarray) -> np.ndarray:
    """Per-row fraction of values occurring exactly once in that row.

    ``ids`` is ``(trials, group)``; equivalent to the legacy
    ``np.unique(..., return_counts=True)`` accounting, vectorised via a
    row-wise sort and neighbour comparison.
    """
    trials, group = ids.shape
    if group == 1:
        return np.ones(trials)
    s = np.sort(ids, axis=1)
    interior_distinct = s[:, 1:] != s[:, :-1]
    distinct_prev = np.empty((trials, group), dtype=bool)
    distinct_prev[:, 0] = True
    distinct_prev[:, 1:] = interior_distinct
    distinct_next = np.empty((trials, group), dtype=bool)
    distinct_next[:, -1] = True
    distinct_next[:, :-1] = interior_distinct
    return (distinct_prev & distinct_next).mean(axis=1)


def _unique_fraction_rows_multiword(words: np.ndarray) -> np.ndarray:
    """Row-uniqueness over multi-word keys: ``words`` is (trials, group, W).

    The multi-word generalisation of :func:`_unique_fraction_rows`: a
    per-trial lexicographic sort over the key words (any consistent
    total order works — only full-key *equality* matters) followed by
    an all-words neighbour comparison.
    """
    trials, group, n_words = words.shape
    if group == 1:
        return np.ones(trials)
    order = np.lexsort(tuple(words[..., w] for w in range(n_words - 1, -1, -1)))
    s = np.take_along_axis(words, order[..., None], axis=1)
    interior_distinct = (s[:, 1:, :] != s[:, :-1, :]).any(axis=2)
    distinct_prev = np.empty((trials, group), dtype=bool)
    distinct_prev[:, 0] = True
    distinct_prev[:, 1:] = interior_distinct
    distinct_next = np.empty((trials, group), dtype=bool)
    distinct_next[:, -1] = True
    distinct_next[:, :-1] = interior_distinct
    return (distinct_prev & distinct_next).mean(axis=1)


class RandomCodesKernel(TrialKernel):
    """Batched randomised-code decoder baseline (DeHon [6]).

    Shared-stream: ``rng.integers`` over ``(trials, group)`` consumes
    the generator exactly like the legacy one-trial-at-a-time loop, so
    the per-trial unique fractions are bit-identical for the same seed.
    """

    metrics = ("unique_fraction",)
    stream_mode = "shared"

    def __init__(self, group_size: int, code_space: int) -> None:
        self.group_size = group_size
        self.code_space = code_space

    def sample(self, rng: np.random.Generator, trials: int) -> dict:
        codes = rng.integers(0, self.code_space, size=(trials, self.group_size))
        return {"unique_fraction": _unique_fraction_rows(codes)}


class RandomContactsKernel(TrialKernel):
    """Batched random-contact decoder baseline (Hogg [8]).

    Signatures are packed into exact float64 integers (52 bits per
    word, one word per 52-mesowire slice) so row-uniqueness reduces to
    the same sort-and-compare as the code kernel at *every* size — no
    per-trial ``np.unique`` fallback.
    """

    metrics = ("unique_fraction",)
    stream_mode = "shared"

    _BITS_PER_WORD = 52

    def __init__(
        self,
        group_size: int,
        mesowires: int,
        connection_probability: float = 0.5,
    ) -> None:
        self.group_size = group_size
        self.mesowires = mesowires
        self.connection_probability = connection_probability

    def sample(self, rng: np.random.Generator, trials: int) -> dict:
        signatures = (
            rng.random((trials, self.group_size, self.mesowires))
            < self.connection_probability
        )
        if self.mesowires <= self._BITS_PER_WORD:
            weights = 2.0 ** np.arange(self.mesowires)
            frac = _unique_fraction_rows(signatures @ weights)
        else:
            bits = self._BITS_PER_WORD
            n_words = -(-self.mesowires // bits)
            words = np.empty((trials, self.group_size, n_words))
            for w in range(n_words):
                chunk = signatures[..., w * bits : (w + 1) * bits]
                words[..., w] = chunk @ (2.0 ** np.arange(chunk.shape[-1]))
            frac = _unique_fraction_rows_multiword(words)
        return {"unique_fraction": frac}
