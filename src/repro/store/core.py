"""Content-addressed, disk-backed result store.

The persistent sibling of the in-process memos in
:mod:`repro.exp.cache`: construction caches (codes, decoders,
fabrication matrices) stay per-process, but *results* — sweep record
rows, Monte-Carlo estimates, workload summaries — land here, keyed on
the sha256 digest of the request's canonical JSON
(:func:`repro.api.request_digest`).  A store directory can sit on NFS
and be shared by every daemon, CLI invocation and shard runner that
agrees on the request schema.

Layout (mirrors a :mod:`repro.dist` job directory)::

    store/
      manifest.jsonl             # append-only: one line per committed entry
      objects/<dd>/<digest>.json # self-verifying entry files, sharded
                                 # on the first two digest hex chars

Crash safety uses the commit protocol of :mod:`repro.durable`: the
entry file is atomically replaced into place *before* the single
``O_APPEND`` manifest line is written, so a kill at any instant leaves
either no trace or a fully valid entry — a manifest line whose file is
missing is treated as incomplete, exactly like shard resume.
Every read re-verifies the entry (digest match against the file name
*and* a sha256 over the canonical result payload recorded at write
time); truncation, bit rot or a partial write all degrade to a cache
miss and a recompute, never to served bad bytes.

Counters (hits/misses/puts/evictions/corrupt) are process-global and
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
from repro.durable import append_line, atomic_write, canonical_json

STORE_SCHEMA_VERSION = 1

#: Environment variable the CLI consults for a default store directory.
STORE_ENV_VAR = "REPRO_STORE"

_COUNTER_NAMES = ("hits", "misses", "puts", "evictions", "corrupt")
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
    the race is benign.

    ``max_entries`` bounds the number of *live* objects: once exceeded,
    :meth:`put` evicts entries in order of their latest commit (manifest
    order); reads do not refresh recency.  Eviction deletes the object
    file only; the manifest stays append-only, and a manifest line
    without a file is simply a miss.
    """

    def __init__(self, root: str | Path, *, max_entries: int | None = None):
        self.root = Path(root)
        self.max_entries = max_entries
        self._objects = self.root / "objects"
        self._manifest = self.root / "manifest.jsonl"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # -- paths -----------------------------------------------------------------

    def object_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

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

        Atomic: the entry file is replaced into place, then one manifest
        line is appended.  Safe to call concurrently from threads and
        processes.
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
        append_line(self._manifest, canonical_json({"digest": digest, "kind": kind}))
        _bump("puts")
        if self.max_entries is not None:
            self._evict_over(self.max_entries)
        return path

    # -- maintenance -----------------------------------------------------------

    def manifest_entries(self) -> list[dict]:
        """Parsed manifest lines, oldest first (malformed lines skipped)."""
        try:
            raw = self._manifest.read_text()
        except OSError:
            return []
        entries = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                entry["digest"]
            except (ValueError, KeyError, TypeError):
                continue
            entries.append(entry)
        return entries

    def _live_entries(self, entries: list[dict]) -> dict[str, dict]:
        """Each live digest's latest manifest line, oldest commit first."""
        latest: dict[str, dict] = {}
        for entry in entries:
            latest.pop(entry["digest"], None)
            latest[entry["digest"]] = entry
        return {d: e for d, e in latest.items() if self.object_path(d).exists()}

    def live_digests(self) -> list[str]:
        """Digests with both a manifest line and an object file, oldest first.

        A digest committed more than once (e.g. recommitted after an
        eviction) counts at its *latest* manifest line, so re-putting
        refreshes its recency in the eviction order.
        """
        return list(self._live_entries(self.manifest_entries()))

    def _evict_over(self, limit: int) -> int:
        with self._lock:
            live = self.live_digests()
            excess = len(live) - limit
            evicted = 0
            for digest in live[: max(excess, 0)]:
                try:
                    self.object_path(digest).unlink()
                    evicted += 1
                except OSError:
                    pass
            if evicted:
                _bump("evictions", evicted)
            return evicted

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    def gc(self) -> dict:
        """Compact the append-only manifest to its live entries.

        Rewrites ``manifest.jsonl`` (atomically, under the instance
        lock) keeping one line per live digest in the current
        recency order — dropping lines for evicted/quarantined objects
        and duplicate recommit lines.  Returns counts:
        ``{"manifest_lines", "live", "pruned"}``.
        """
        with self._lock:
            entries = self.manifest_entries()
            live = list(self._live_entries(entries).values())
            atomic_write(
                self._manifest,
                "".join(
                    canonical_json({"digest": e["digest"], "kind": e.get("kind")})
                    + "\n"
                    for e in live
                ),
            )
            return {
                "manifest_lines": len(entries),
                "live": len(live),
                "pruned": len(entries) - len(live),
            }

    def verify(self, *, quarantine: bool = False) -> dict:
        """Digest-verify every object file in the store.

        Walks ``objects/<dd>/*.json`` (the files themselves, not the
        manifest — orphaned objects get checked too) and runs the full
        verification chain on each.  Corrupt objects are reported as
        ``{"digest", "path", "reason"}`` rows and, with
        ``quarantine=True``, renamed to ``.corrupt`` so the next read
        recommits cleanly.  Returns ``{"checked", "ok", "corrupt",
        "quarantined"}``.
        """
        corrupt = []
        checked = 0
        quarantined = 0
        for shard_dir in sorted(self._objects.iterdir()):
            if not shard_dir.is_dir():
                continue
            for path in sorted(shard_dir.glob("*.json")):
                digest = path.stem
                checked += 1
                try:
                    _verified_result(path, digest)
                    continue
                except OSError:
                    reason = "object file unreadable"
                except _CorruptEntry as exc:
                    reason = str(exc)
                corrupt.append(
                    {"digest": digest, "path": str(path), "reason": reason}
                )
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
        """Snapshot: live entry count plus the global traffic counters."""
        return {"entries": len(self.live_digests()), **store_counters()}


def default_store(root: str | Path | None = None) -> ResultStore | None:
    """The store named by ``root`` or ``$REPRO_STORE``, else ``None``."""
    root = root or os.environ.get(STORE_ENV_VAR)
    return None if not root else ResultStore(root)
