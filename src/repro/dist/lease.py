"""Per-shard lease files: the worker liveness signal supervisors watch.

A shard worker holds a *lease* while it computes: a small JSON file
under ``<job_dir>/leases/`` that a daemon thread re-writes every
``ttl / 4`` seconds.  Liveness is judged by the supervisor's own clock
(:class:`LeaseWatch`): a lease the supervisor has not seen change for
longer than its TTL (``time.monotonic``) means the worker stopped
renewing, whether it was SIGKILLed, segfaulted, or froze with every
thread stopped.  No two clocks are ever compared, so a lease written
by a host whose clock runs ahead still expires, and one written by a
host whose clock runs behind is not taken for dead; the signal works
across processes and across hosts sharing the job directory over a
network filesystem, with no sockets or signals involved.

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
    """The lease document plus its ``age_s``, or None if absent/unreadable.

    ``age_s`` compares the file's mtime with this host's wall clock: a
    status figure only (another host's clock may differ), never the
    staleness judgment, which is :class:`LeaseWatch`'s.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
        doc["age_s"] = max(0.0, time.time() - path.stat().st_mtime)
        return doc
    except (OSError, ValueError):
        return None


class LeaseWatch:
    """Lease staleness by the watcher's own monotonic clock.

    Each :meth:`stale` call stats the lease file; whenever its identity
    (inode, mtime, ctime, size) differs from the last call's, the file
    was renewed and the watcher notes ``time.monotonic()``.  A lease
    that has not changed for more than ``ttl_s`` of the watcher's time
    is stale — whatever clock the file's timestamps came from.
    """

    def __init__(self, ttl_s: float) -> None:
        self.ttl_s = float(ttl_s)
        self._seen: dict[Path, tuple[tuple, float]] = {}

    def stale(self, path: str | Path) -> bool:
        """True when ``path`` exists and has not changed for > TTL."""
        path = Path(path)
        now = time.monotonic()
        try:
            st = path.stat()
        except OSError:
            self._seen.pop(path, None)
            return False
        mark = (st.st_ino, st.st_mtime_ns, st.st_ctime_ns, st.st_size)
        seen = self._seen.get(path)
        if seen is None or seen[0] != mark:
            self._seen[path] = (mark, now)
            return False
        return now - seen[1] > self.ttl_s

    def forget(self, path: str | Path) -> None:
        """Drop what was seen of ``path`` (its worker is gone)."""
        self._seen.pop(Path(path), None)


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
