"""Chunk planning and random-stream layout for the batched MC engine.

The engine decomposes a simulation of ``samples`` trials into

* **stream blocks** — fixed-size groups of trials (``stream_block``,
  default 4096) that each own one child ``numpy.random.Generator``
  spawned from the root generator.  Because children are spawned in
  block order and a block is always evaluated in a single vectorised
  kernel call, results depend only on ``(seed, stream_block,
  samples)`` — never on how blocks are grouped into chunks.  (They
  *can* depend on the total ``samples``: a kernel whose draw layout
  interleaves trials — e.g. the cave-yield kernel, which draws every
  trial's wire uniforms before any boundary offset — gives the final,
  partial block different per-trial values than a full block would.)
* **chunks** — groups of whole stream blocks of at most
  ``max_trials_per_chunk`` trials that are held in memory together.
  Chunking bounds peak memory at millions of trials; it never changes
  numerical results.  A chunk's spawn-mode blocks are evaluated on up
  to :func:`usable_cpus` threads (:func:`parallel_map`) and folded in
  block order, so the thread count never changes results either.

Shared-stream kernels (see :class:`repro.sim.engine.TrialKernel`) draw
all their randomness in one array call per chunk from a single caller
generator; concatenated draws consume the stream exactly like the
per-trial legacy loops, so those kernels are chunk-invariant too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro import obs

#: Trials per child random stream (and per kernel call in spawn mode).
DEFAULT_STREAM_BLOCK = 4096

#: Default upper bound on trials held in memory at once.
DEFAULT_MAX_TRIALS_PER_CHUNK = 65536


def validate_samples(samples: int) -> int:
    """Check a trial budget; every simulate entry point funnels through here."""
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    return samples


def validate_k_sigma(k_sigma: float) -> float:
    """Check a margin criterion strictness: finite and ``>= 0``."""
    k_sigma = float(k_sigma)
    if not 0.0 <= k_sigma < float("inf"):  # also rejects NaN
        raise ValueError(f"k_sigma must be finite and >= 0, got {k_sigma}")
    return k_sigma


def validate_chunk(max_trials_per_chunk: int) -> int:
    """Check a chunk bound; must allow at least one trial."""
    chunk = int(max_trials_per_chunk)
    if chunk < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk}")
    return chunk


def validate_stream_block(stream_block: int) -> int:
    """Check the stream-block granularity."""
    block = int(stream_block)
    if block < 1:
        raise ValueError(f"stream block must be >= 1, got {block}")
    return block


@dataclass(frozen=True)
class Chunk:
    """One engine step: ``trials`` trials starting at global index ``start``."""

    start: int
    trials: int

    @property
    def stop(self) -> int:
        return self.start + self.trials


def plan_chunks(
    samples: int,
    max_trials_per_chunk: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    stream_block: int = DEFAULT_STREAM_BLOCK,
) -> list[Chunk]:
    """Partition ``samples`` trials into chunks of whole stream blocks.

    The chunk bound is rounded down to a multiple of ``stream_block``
    (with a floor of one block) so that chunk boundaries always coincide
    with stream-block boundaries — the invariant that makes results
    independent of ``max_trials_per_chunk``.
    """
    samples = validate_samples(samples)
    chunk_bound = validate_chunk(max_trials_per_chunk)
    block = validate_stream_block(stream_block)
    per_chunk = max((chunk_bound // block) * block, block)
    chunks = []
    start = 0
    while start < samples:
        trials = min(per_chunk, samples - start)
        chunks.append(Chunk(start=start, trials=trials))
        start += trials
    return chunks


def total_blocks(samples: int, stream_block: int = DEFAULT_STREAM_BLOCK) -> int:
    """Number of stream blocks a simulation of ``samples`` trials spans.

    This is the granularity of the sharding layer (:mod:`repro.dist`):
    a block always lives in exactly one shard, so any contiguous
    partition of ``range(total_blocks(...))`` reproduces the
    single-host stream layout block for block.
    """
    samples = validate_samples(samples)
    block = validate_stream_block(stream_block)
    return -(-samples // block)


def block_sizes(chunk: Chunk, stream_block: int) -> list[int]:
    """Kernel-call widths for one chunk (whole blocks, last may be partial)."""
    sizes = []
    remaining = chunk.trials
    while remaining > 0:
        sizes.append(min(stream_block, remaining))
        remaining -= sizes[-1]
    return sizes


def resolve_rng(
    rng: np.random.Generator | int | None,
) -> np.random.Generator:
    """Build the engine's root generator.

    An explicit :class:`numpy.random.Generator` is used as-is (its
    bit-generator family decides the spawned children's family).  An
    integer seed (or ``None``) builds an ``SFC64`` root: child streams
    exist per block anyway, so the engine prefers NumPy's fastest bulk
    bit generator over the ``default_rng`` PCG64.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(rng)))


def spawn_block_streams(
    root: np.random.Generator, n_blocks: int
) -> list[np.random.Generator]:
    """Spawn one child generator per stream block.

    ``Generator.spawn`` hands out children in a stable order, and
    incremental spawning (chunk by chunk) yields exactly the same
    children as spawning everything upfront, which is what makes the
    chunked engine reproducible.
    """
    obs.counter("sim.rng_blocks", n_blocks)
    return root.spawn(n_blocks)


def usable_cpus() -> int:
    """Threads an engine call may run on in this process.

    The CPU affinity mask of a main process, and 1 inside a
    :mod:`multiprocessing` child — the ``exp`` sweep pool and ``dist``
    shard workers already run one process per core.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def parallel_map(fn: Callable, *iterables: Iterable) -> list:
    """``list(map(fn, *iterables))`` on up to :func:`usable_cpus` threads.

    Results come back in input order.  One item (or one usable CPU) is
    a plain loop; otherwise a scoped thread pool runs the items and is
    joined before the call returns, so none of its threads outlives the
    call or is alive at a later ``fork``.  ``fn`` must be re-entrant and
    must not record telemetry: :mod:`repro.obs` registries are not
    locked, so callers record on their own thread.
    """
    args = list(zip(*iterables))
    width = min(len(args), usable_cpus())
    if width <= 1:
        return [fn(*a) for a in args]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, *zip(*args)))
