"""Per-shard lease files: the worker liveness signal supervisors watch.

A shard worker holds a *lease* while it computes: a small JSON file
under ``<job_dir>/leases/`` that a daemon thread re-writes every
``ttl / 4`` seconds.  Liveness is judged entirely by the file's mtime —
a lease older than its TTL means the worker stopped renewing, whether
it was SIGKILLed, segfaulted, or froze with every thread stopped — so
the signal works across processes and across hosts sharing the job
directory over a network filesystem, with no sockets or signals
involved.

Renewal is a :func:`repro.durable.atomic_write` like every other write
in the job directory: a reader never sees a half-written lease.  On
clean exit the lease file is removed; on any unclean death it simply
stops being renewed and expires.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path

from repro.dist.spec import ShardSpec
from repro.durable import atomic_write

LEASES_DIR = "leases"

#: Default worker lease time-to-live.  Renewal runs at a quarter of
#: this, so a live worker refreshes ~4 times per TTL window and a
#: supervisor judging staleness at 1 TTL has ample slack for slow disks.
DEFAULT_LEASE_TTL_S = 15.0


def leases_dir_for(job_dir: str | Path) -> Path:
    """The directory holding a job's shard lease files."""
    return Path(job_dir) / LEASES_DIR


def lease_path_for(job_dir: str | Path, shard: ShardSpec) -> Path:
    """The lease file of one shard (named like its spec/result files)."""
    return leases_dir_for(job_dir) / shard.file_name


def read_lease(path: str | Path) -> dict | None:
    """The lease document plus its ``age_s``, or None if absent/unreadable."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
        doc["age_s"] = max(0.0, time.time() - path.stat().st_mtime)
        return doc
    except (OSError, ValueError):
        return None


def lease_is_stale(path: str | Path, ttl_s: float | None = None) -> bool:
    """True when the lease exists but stopped being renewed for > TTL."""
    doc = read_lease(path)
    if doc is None:
        return False
    ttl = ttl_s if ttl_s is not None else float(doc.get("ttl_s", DEFAULT_LEASE_TTL_S))
    return doc["age_s"] > ttl


class Lease:
    """Heartbeat-renewed lease file, held for the duration of a ``with``.

    >>> with Lease(path, ttl_s=15.0):
    ...     compute()

    The renewal thread is a daemon: if the process dies it dies with
    it, and the un-renewed file ages into staleness — that *is* the
    failure signal.
    """

    def __init__(self, path: str | Path, *, ttl_s: float = DEFAULT_LEASE_TTL_S):
        self.path = Path(path)
        self.ttl_s = float(ttl_s)
        self.interval_s = max(self.ttl_s / 4.0, 0.01)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started = time.time()

    def _write(self) -> None:
        doc = {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "started": self._started,
            "renewed": time.time(),
            "ttl_s": self.ttl_s,
        }
        atomic_write(self.path, json.dumps(doc) + "\n")

    def _renew_loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self._write()
            except OSError:  # pragma: no cover - disk hiccup; retry next beat
                pass

    def __enter__(self) -> "Lease":
        self._started = time.time()
        self._write()
        self._thread = threading.Thread(
            target=self._renew_loop, name="repro-lease", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def release(self) -> None:
        """Stop renewing and remove the lease file (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s * 2)
            self._thread = None
        try:
            self.path.unlink()
        except OSError:
            pass
