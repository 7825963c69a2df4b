"""Streaming (Welford-style) moment accumulators for chunked simulation.

A chunked engine never holds all per-trial values at once, so summary
statistics are accumulated online.  :class:`StreamingMoments` keeps the
running count, mean and centred second moment (M2) and folds in whole
batches at a time using the Chan/Golub/LeVeque parallel-combine update —
numerically stable at millions of trials, and mergeable across chunks
and shards.

The unit of every fold is a batch's ``(count, mean, M2)`` state
(:func:`batch_state`): a single-host engine run folds one state per
stream block (:meth:`MomentSet.fold`), a shard writes the same states to
its result file, and the shard merger folds them with the same call in
the same block order — so a merged job equals the single-host run by
construction, whatever the shard count.
"""

from __future__ import annotations

import math

import numpy as np

#: A batch's ``(count, mean, M2)``: the unit folded and shipped by shards.
State = tuple[int, float, float]


def batch_state(values: np.ndarray) -> State:
    """The ``(count, mean, M2)`` state of one batch (any shape, flattened)."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return (0, 0.0, 0.0)
    mean = float(values.mean())
    return (values.size, mean, float(((values - mean) ** 2).sum()))


class StreamingMoments:
    """Online mean/variance/stderr over a stream of scalar trial values.

    ``update`` consumes a batch (any array shape; it is flattened),
    ``merge`` combines two accumulators, and the properties report the
    same statistics NumPy would: ``mean`` matches ``np.mean`` and
    ``std`` matches ``np.std(ddof=1)`` up to floating-point rounding.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, values: np.ndarray) -> None:
        """Fold one batch of per-trial values into the running moments."""
        self.fold(batch_state(values))

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another accumulator into this one (sharding-friendly)."""
        self.fold(other.state())

    def fold(self, state: State) -> None:
        """Fold a ``(count, mean, M2)`` state (Chan/Golub/LeVeque combine)."""
        n, mean, m2 = state
        if n == 0:
            return
        total = self.count + n
        delta = mean - self.mean
        self.mean += delta * n / total
        self._m2 += m2 + delta * delta * self.count * n / total
        self.count = total

    def state(self) -> State:
        """The ``(count, mean, M2)`` triple that fully determines this
        accumulator."""
        return (self.count, self.mean, self._m2)

    @classmethod
    def from_state(cls, count: int, mean: float, m2: float) -> "StreamingMoments":
        """Rebuild an accumulator from a :meth:`state` triple."""
        out = cls()
        out.count = int(count)
        out.mean = float(mean)
        out._m2 = float(m2)
        return out

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 for fewer than two trials."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); 0.0 below two trials."""
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean; 0.0 for a single trial."""
        if self.count <= 1:
            return 0.0
        return self.std / math.sqrt(self.count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingMoments(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


class MomentSet:
    """A named bundle of :class:`StreamingMoments`, one per metric."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self.moments = {name: StreamingMoments() for name in names}

    def update(self, batch: dict) -> None:
        """Fold a kernel's ``{metric: per-trial array}`` batch."""
        for name, values in batch.items():
            self.moments[name].update(values)

    def fold(self, states: dict) -> None:
        """Fold one block's ``{metric: (count, mean, M2)}`` states."""
        for name, state in states.items():
            self.moments[name].fold(state)

    def __getitem__(self, name: str) -> StreamingMoments:
        return self.moments[name]
