"""Self-describing shard specifications and content keys.

A :class:`ShardSpec` is the unit of distributed work: a canonical
:mod:`repro.api` request payload plus the slice of it this shard owns —
design-point rows of a sweep, or stream blocks of a Monte-Carlo run.
Any host with this library can execute it with no other context.  Specs
and job descriptions are hashed into short **content keys** over their
canonical JSON form; the keys name the shard and result files, so a
result can always be checked against the spec that produced it and a
re-planned identical job resumes from the same files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro.durable import canonical_json

#: Why an old-layout shard spec or job directory is refused.
OLD_LAYOUT = (
    "was planned with an older shard layout (no embedded api request); "
    "re-plan the job with `repro shard plan`"
)


def content_key(payload: object) -> str:
    """Short content hash (12 hex chars) of a JSON-serialisable value."""
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return digest[:12]


@dataclass(frozen=True)
class ShardSpec:
    """One self-describing unit of distributed work: a request plus a slice.

    Parameters
    ----------
    job_key:
        Content key of the parent job description; results carry it so
        a merge never mixes shards of different jobs.
    index / count:
        This shard's position in the plan and the plan's shard count;
        merge order is index order.
    request:
        The canonical payload of the job's :mod:`repro.api` request
        (``SweepRequest.to_dict()`` or ``McRequest.to_dict()``); the
        shard kind is its ``kind``.
    start / stop:
        The slice this shard owns: design-point rows ``[start, stop)``
        of a sweep, or stream blocks ``[start, stop)`` of an MC run.
    """

    job_key: str
    index: int
    count: int
    request: dict
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index {self.index} out of range for count {self.count}"
            )
        if not 0 <= self.start < self.stop:
            raise ValueError(f"empty shard slice [{self.start}, {self.stop})")

    @property
    def kind(self) -> str:
        return self.request["kind"]

    def to_dict(self) -> dict:
        """The JSON form written to ``shards/``; fully self-describing."""
        return {
            "job_key": self.job_key,
            "index": self.index,
            "count": self.count,
            "request": self.request,
            "start": self.start,
            "stop": self.stop,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ShardSpec":
        if "request" not in payload:
            raise ValueError(f"shard spec {OLD_LAYOUT}")
        return cls(
            job_key=payload["job_key"],
            index=int(payload["index"]),
            count=int(payload["count"]),
            request=dict(payload["request"]),
            start=int(payload["start"]),
            stop=int(payload["stop"]),
        )

    @cached_property
    def key(self) -> str:
        """Content key of this shard (names the spec and result files)."""
        return content_key(self.to_dict())

    @property
    def file_name(self) -> str:
        """Stable on-disk name: zero-padded index plus content key."""
        return f"{self.index:04d}-{self.key}.json"

    @property
    def units(self) -> int:
        """Work size: design points (sweep) or trials (MC shards)."""
        if self.kind == "sweep":
            return self.stop - self.start
        block = self.request["stream_block"]
        return min(self.stop * block, self.request["samples"]) - self.start * block


@dataclass(frozen=True)
class ShardPlan:
    """A planned job: ``{"key", "request", "shards"}`` plus its shards in order."""

    job: dict
    shards: tuple[ShardSpec, ...]

    @property
    def key(self) -> str:
        return self.job["key"]

    @property
    def kind(self) -> str:
        return self.job["request"]["kind"]


def split_even(total: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous near-even partition of ``range(total)`` into ``parts``.

    The first ``total % parts`` parts get one extra element, so shard
    sizes differ by at most one and concatenating the parts in order
    reproduces ``range(total)`` exactly.
    """
    if total < 1:
        raise ValueError(f"nothing to split ({total} units)")
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    parts = min(parts, total)
    base, rem = divmod(total, parts)
    ranges = []
    start = 0
    for i in range(parts):
        width = base + (1 if i < rem else 0)
        ranges.append((start, start + width))
        start += width
    return ranges
