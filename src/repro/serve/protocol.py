"""Wire protocol of the ``repro serve`` daemon.

Newline-delimited JSON over a unix socket: each frame is one JSON
object on one line (requests may not contain literal newlines, which
:func:`json.dumps` already guarantees).  The client sends request
frames; the server answers each with exactly one ``done`` or ``error``
frame, matched by the client-chosen ``id``.

Request frame::

    {"v": 3, "id": 1, "op": "evaluate", "request": <canonical api payload>}
    {"v": 3, "id": 2, "op": "simulate", "request": ..., "chunk_size": 65536}
    {"v": 3, "id": 3, "op": "memsim", "request": ..., "chunk_size": 65536}
    {"v": 3, "id": 4, "op": "ping"}
    {"v": 3, "id": 5, "op": "stats"}
    {"v": 3, "id": 6, "op": "shutdown"}

Every request frame carries the protocol version ``v``; the daemon
answers a frame whose ``v`` differs from its own
:data:`PROTOCOL_VERSION` with an error frame naming both versions.
``chunk_size`` is the only execution knob a frame carries (it never
changes results); sweeps run with the daemon's own ``--jobs``.

Response frames::

    {"id": 1, "ok": true, "frame": "done", "result": {...},
     "cached": false}
    {"id": 9, "ok": false, "frame": "error", "error": "..."}
    {"id": 9, "ok": false, "frame": "error", "error": "...",
     "kind": "busy", "retry_after": 0.5}

The ``result`` of a compute op is ``api.KINDS[kind].encode(result)``:
the same payload the result store holds for that request, decoded by
the client with ``api.KINDS[kind].decode``.  ``cached`` reports
whether it came from the content-addressed store.

Error frames may carry a machine-readable ``kind`` that clients use
for retry decisions: ``busy`` (admission queue full — honour
``retry_after`` seconds before retrying), ``deadline`` (the request
exceeded the daemon's per-request deadline), ``draining`` (the daemon
is shutting down gracefully and refuses new work).  Absent ``kind``
means a plain request failure (bad payload, engine error, a request
line over the daemon's size limit) that a retry would not fix.  An
error frame for a line the daemon could not parse has ``"id": null``.
"""

from __future__ import annotations

import json

#: Version 3 answers every compute op with one ``done`` frame holding
#: the store-entry payload (v2 streamed sweep rows in chunk frames).
PROTOCOL_VERSION = 3

#: Operations the daemon dispatches.
OPS = ("evaluate", "simulate", "memsim", "ping", "stats", "shutdown")


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
    """A protocol-v2 sweep row chunk; the daemon no longer sends these.

    Kept only because ``perfbench/workloads.py`` still builds one to
    time frame encoding; drop it when that benchmark is next revised.
    """
    return {
        "id": request_id,
        "ok": True,
        "frame": "chunk",
        "fields": fields,
        "records": records,
    }


def done_frame(request_id: int, *, cached: bool, result: dict | None = None) -> dict:
    """The success frame of one request."""
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
    """The failure frame of one request.

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
