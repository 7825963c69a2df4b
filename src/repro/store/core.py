"""Content-addressed, disk-backed result store.

The persistent sibling of the in-process memos in
:mod:`repro.exp.cache`: construction caches (codes, decoders,
fabrication matrices) stay per-process, but *results* — sweep record
rows, Monte-Carlo estimates, workload summaries — land here, keyed on
the sha256 digest of the request's canonical JSON
(:func:`repro.api.request_digest`).  A store directory can sit on NFS
and be shared by every daemon, CLI invocation and shard runner that
agrees on the request schema.

Layout::

    store/
      objects/<dd>/<digest>.json # self-verifying entry files, sharded
                                 # on the first two digest hex chars

The object files are the whole store: nothing else is read or written,
and a ``manifest.jsonl`` left by an older layout is ignored.  A commit
is one :func:`repro.durable.atomic_write` of the entry file, so a kill
at any instant leaves either no trace or a fully valid entry.  Every
read re-verifies the entry (digest match against the file name *and* a
sha256 over the canonical result payload recorded at write time);
truncation, bit rot or a partial write all degrade to a cache miss and
a recompute, never to served bad bytes.  The store never deletes an
entry: it grows until its directory is cleared.

Counters (hits/misses/puts/corrupt) are process-global and
registered as the ``store`` provider of :mod:`repro.obs`, so daemon
snapshots and ``--profile`` output show hit rates next to the
``exp.cache`` memo counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro import faults, obs
from repro.durable import atomic_write, canonical_json

STORE_SCHEMA_VERSION = 1

#: Environment variable the CLI consults for a default store directory.
STORE_ENV_VAR = "REPRO_STORE"

_COUNTER_NAMES = ("hits", "misses", "puts", "corrupt")
_counters = {name: 0 for name in _COUNTER_NAMES}
_counters_lock = threading.Lock()


def store_counters() -> dict[str, int]:
    """Process-global store traffic counters (monotonic)."""
    with _counters_lock:
        return dict(_counters)


def reset_store_counters() -> None:
    """Zero the counters (test isolation)."""
    with _counters_lock:
        for name in _COUNTER_NAMES:
            _counters[name] = 0


def _bump(name: str, amount: int = 1) -> None:
    with _counters_lock:
        _counters[name] += amount


obs.register_provider("store", store_counters)


def result_checksum(result: dict) -> str:
    """sha256 over the canonical JSON of a result payload."""
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


class _CorruptEntry(ValueError):
    """An object file that exists but fails verification."""


def _verified_result(path: Path, digest: str) -> dict:
    """The result payload of one object file, after full verification.

    The one verification chain of the store: the file parses, names
    ``digest``, carries this store schema version, and its result
    payload hashes to the recorded checksum.  Raises :class:`OSError`
    when the file cannot be read and :class:`_CorruptEntry` (with the
    reason) when it fails a check.
    """
    raw = path.read_bytes()
    try:
        entry = json.loads(raw)
    except ValueError:
        raise _CorruptEntry("object file is not valid JSON (truncated?)") from None
    try:
        if entry["digest"] != digest:
            raise _CorruptEntry("entry file names a different digest")
        if entry["v"] != STORE_SCHEMA_VERSION:
            raise _CorruptEntry(f"unsupported store schema v{entry['v']}")
        result = entry["result"]
        if result_checksum(result) != entry["result_sha256"]:
            raise _CorruptEntry("result checksum mismatch")
    except (KeyError, TypeError):
        raise _CorruptEntry("entry document missing required fields") from None
    return result


class ResultStore:
    """A content-addressed result cache rooted at one directory.

    Instances are cheap handles over shared disk state: any number of
    processes may read and write the same root concurrently.  Writes
    are last-committed-wins, but since entries are content-addressed
    two writers racing on one digest commit byte-identical files, so
    the race is benign.  The directory is created by the first commit.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._objects = self.root / "objects"

    # -- paths -----------------------------------------------------------------

    def object_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    def _object_files(self):
        """Every ``objects/<dd>/<digest>.json`` file (not ``.corrupt`` or
        temp files)."""
        return self._objects.glob("*/*.json")

    # -- read ------------------------------------------------------------------

    def get(self, digest: str) -> dict | None:
        """The result payload for ``digest``, or ``None`` on a miss.

        A hit requires the full verification chain of
        :func:`_verified_result`.  Any failure counts as ``corrupt``
        (plus the miss) and quarantines the bad file so the next writer
        can recommit cleanly.
        """
        path = self.object_path(digest)
        try:
            result = _verified_result(path, digest)
        except OSError:
            _bump("misses")
            return None
        except _CorruptEntry:
            _bump("corrupt")
            _bump("misses")
            self._quarantine(path)
            return None
        _bump("hits")
        return result

    def contains(self, digest: str) -> bool:
        """Whether a verified entry exists (without counting a hit/miss)."""
        try:
            _verified_result(self.object_path(digest), digest)
        except (OSError, _CorruptEntry):
            return False
        return True

    # -- write -----------------------------------------------------------------

    def put(self, digest: str, kind: str, request: dict, result: dict) -> Path:
        """Commit a result under its request digest; returns the entry path.

        Atomic (one :func:`repro.durable.atomic_write`), so safe to call
        concurrently from threads and processes.
        """
        path = self.object_path(digest)
        entry = {
            "v": STORE_SCHEMA_VERSION,
            "digest": digest,
            "kind": kind,
            "request": request,
            "result": result,
            "result_sha256": result_checksum(result),
        }
        atomic_write(path, json.dumps(entry, indent=2, sort_keys=True) + "\n")
        faults.corrupt_file("store.corrupt_object", path)
        _bump("puts")
        return path

    # -- maintenance -----------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    def verify(self, *, quarantine: bool = False) -> dict:
        """Digest-verify every object file in the store.

        Walks ``objects/<dd>/*.json`` and runs the full verification
        chain on each.  Corrupt objects are reported as
        ``{"digest", "path", "reason"}`` rows and, with
        ``quarantine=True``, renamed to ``.corrupt`` so the next read
        recommits cleanly.  Returns ``{"checked", "ok", "corrupt",
        "quarantined"}``.
        """
        corrupt = []
        checked = 0
        quarantined = 0
        for path in sorted(self._object_files()):
            digest = path.stem
            checked += 1
            try:
                _verified_result(path, digest)
                continue
            except OSError:
                reason = "object file unreadable"
            except _CorruptEntry as exc:
                reason = str(exc)
            corrupt.append({"digest": digest, "path": str(path), "reason": reason})
            _bump("corrupt")
            if quarantine:
                self._quarantine(path)
                quarantined += 1
        return {
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
            "quarantined": quarantined,
        }

    def stats(self) -> dict:
        """Snapshot: the object-file count plus the global traffic counters."""
        entries = sum(1 for _ in self._object_files())
        return {"entries": entries, **store_counters()}


def default_store(root: str | Path | None = None) -> ResultStore | None:
    """The store named by ``root`` or ``$REPRO_STORE``, else ``None``."""
    root = root or os.environ.get(STORE_ENV_VAR)
    return None if not root else ResultStore(root)
