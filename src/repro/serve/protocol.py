"""Wire protocol of the ``repro serve`` daemon.

Newline-delimited JSON over a unix socket: each frame is one JSON
object on one line (requests may not contain literal newlines, which
:func:`json.dumps` already guarantees).  The client sends request
frames; the server answers each with zero or more ``chunk`` frames
followed by exactly one terminal ``done`` or ``error`` frame, matched
by the client-chosen ``id``.

Request frame::

    {"v": 2, "id": 1, "op": "evaluate", "request": <canonical api payload>,
     "jobs": 4}                       # optional execution knobs
    {"v": 2, "id": 2, "op": "simulate", "request": ..., "chunk_size": 65536}
    {"v": 2, "id": 3, "op": "memsim", "request": ...}
    {"v": 2, "id": 4, "op": "ping"}
    {"v": 2, "id": 5, "op": "stats"}
    {"v": 2, "id": 6, "op": "shutdown"}

Every request frame carries the protocol version ``v``; the daemon
answers a frame whose ``v`` differs from its own
:data:`PROTOCOL_VERSION` with an error frame naming both versions.

Response frames::

    {"id": 1, "ok": true, "frame": "chunk", "fields": [...],
     "records": [...]}                # sweep rows, streamed in order
    {"id": 1, "ok": true, "frame": "done", "cached": false}
    {"id": 2, "ok": true, "frame": "done", "result": {...},
     "cached": true}
    {"id": 9, "ok": false, "frame": "error", "error": "..."}
    {"id": 9, "ok": false, "frame": "error", "error": "...",
     "kind": "busy", "retry_after": 0.5}

Error frames may carry a machine-readable ``kind`` that clients use
for retry decisions: ``busy`` (admission queue full — honour
``retry_after`` seconds before retrying), ``deadline`` (the request
exceeded the daemon's per-request deadline), ``draining`` (the daemon
is shutting down gracefully and refuses new work).  Absent ``kind``
means a plain request failure (bad payload, engine error) that a
retry would not fix.

Sweep results stream chunk-by-chunk (``chunk_rows`` rows per frame) so
a client can start consuming a large grid before evaluation of later
batches lands; ``fields`` repeats in every chunk so each frame is
self-describing.  ``cached`` reports whether the terminal result came
from the content-addressed store.
"""

from __future__ import annotations

import json
from typing import Iterator

#: Version 2 dropped the ``method`` knob of simulate/memsim frames.
PROTOCOL_VERSION = 2

#: Operations the daemon dispatches.
OPS = ("evaluate", "simulate", "memsim", "ping", "stats", "shutdown")

#: Default number of sweep record rows per streamed chunk frame.
DEFAULT_CHUNK_ROWS = 256


def encode_frame(frame: dict) -> bytes:
    """One NDJSON line for ``frame``."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode()


def decode_frame(line: bytes | str) -> dict:
    """Parse one NDJSON line; raises ``ValueError`` on malformed input."""
    frame = json.loads(line)
    if not isinstance(frame, dict):
        raise ValueError("protocol frame must be a JSON object")
    return frame


def request_frame(op: str, request_id: int, payload: dict | None = None, **knobs):
    """Build a client request frame."""
    if op not in OPS:
        raise ValueError(f"unknown op {op!r}; expected one of {OPS}")
    frame = {"v": PROTOCOL_VERSION, "id": request_id, "op": op}
    if payload is not None:
        frame["request"] = payload
    frame.update({k: v for k, v in knobs.items() if v is not None})
    return frame


def chunk_frame(request_id: int, fields: list[str], records: list[dict]) -> dict:
    """One streamed batch of sweep record rows (self-describing)."""
    return {
        "id": request_id,
        "ok": True,
        "frame": "chunk",
        "fields": fields,
        "records": records,
    }


def done_frame(request_id: int, *, cached: bool, result: dict | None = None) -> dict:
    """The terminal success frame of one request."""
    frame = {"id": request_id, "ok": True, "frame": "done", "cached": cached}
    if result is not None:
        frame["result"] = result
    return frame


def error_frame(
    request_id: int | None,
    message: str,
    *,
    kind: str | None = None,
    retry_after: float | None = None,
) -> dict:
    """The terminal failure frame of one request.

    ``kind`` tags machine-actionable failures (``busy``, ``deadline``,
    ``draining``); ``retry_after`` suggests a client back-off in
    seconds (``busy`` frames carry it).
    """
    frame = {"id": request_id, "ok": False, "frame": "error", "error": message}
    if kind is not None:
        frame["kind"] = kind
    if retry_after is not None:
        frame["retry_after"] = retry_after
    return frame


def iter_record_chunks(
    records: list[dict], chunk_rows: int
) -> Iterator[list[dict]]:
    """Split a record list into successive row chunks (at least one)."""
    if not records:
        yield []
        return
    for start in range(0, len(records), max(chunk_rows, 1)):
        yield records[start : start + max(chunk_rows, 1)]
