"""Durable commits: the one place a file is replaced or a line appended.

Every on-disk commit of the stack — result-store entries and manifest
lines, shard spec/result/lease files, the checkpoint manifest and the
supervision log — goes through the two primitives here, so the commit
protocol is written once:

* :func:`atomic_write` writes the new text to a temp file with a
  unique name in the target's directory, then :func:`os.replace`-s it
  over the target.  A reader sees the old file or the new one, never a
  partial write, and two threads or processes committing the same path
  at once each rename their own complete temp file.
* :func:`append_line` appends one line with a single ``os.write`` on an
  ``O_APPEND`` descriptor, so concurrent writers — across processes or
  hosts sharing a directory — interleave whole lines.

Neither primitive calls ``fsync``: a commit survives a process crash,
not a power loss.

:func:`canonical_json` is the canonical text every content address
(request digests, shard keys, result checksums) is hashed over.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def canonical_json(payload: object) -> str:
    """Canonical JSON text: sorted keys, no whitespace, exact floats.

    Python's float repr is shortest-round-trip, so ``float -> JSON ->
    float`` is exact and hashes over this text are stable.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def atomic_write(path: str | Path, text: str) -> Path:
    """Replace ``path`` with ``text`` atomically; returns the path.

    The temp name carries the pid and random bytes, so concurrent
    commits of one path never share a temp file.  Parent directories
    are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{os.urandom(6).hex()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def append_line(path: str | Path, line: str) -> None:
    """Append ``line`` plus a newline to ``path`` in one ``O_APPEND`` write."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, (line + "\n").encode())
    finally:
        os.close(fd)
