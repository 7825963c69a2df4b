"""Telemetry sinks: in-memory collection and an atomic JSONL stream.

Sinks receive dict *events* from the registry: one per closed span
(``type: "span"``) and one final metric snapshot (``type: "metrics"``)
when :func:`repro.obs.finish` runs.  Every event carries the schema
version in ``v`` — the JSONL stream is a documented, stable schema
(see README "Observability"); breaking changes bump
:data:`repro.obs.core.SCHEMA_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from repro.durable import canonical_json
from repro.obs.core import SCHEMA_VERSION


def run_id(meta: Mapping | None) -> str:
    """Content-keyed run identifier: hash of the canonical run metadata.

    The same command + configuration yields the same id, which lets
    downstream tooling group re-runs and dedup shard streams — the same
    content-keying discipline as ``repro.dist`` shard specs.
    """
    return hashlib.sha256(canonical_json(meta or {}).encode()).hexdigest()[:12]


class InMemorySink:
    """Collects events in lists — the test double."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.snapshots: list[dict] = []

    def event(self, event: dict) -> None:
        if event.get("type") == "metrics":
            self.snapshots.append(event["snapshot"])
        else:
            self.spans.append(event)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class JsonlSink:
    """Appends one JSON line per event to a file.

    Each line is a single ``write()`` call on an append-mode handle, so
    concurrent writers sharing a file (multi-host shard runs over NFS)
    interleave whole lines, mirroring the manifest append protocol in
    ``repro.dist``.  The first line written is a ``run`` header
    carrying the schema version and the content-keyed run id.
    """

    def __init__(self, path: str | Path, meta: Mapping | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a")
        header = {"v": SCHEMA_VERSION, "type": "run", "run": run_id(meta)}
        if meta:
            header["meta"] = dict(meta)
        self._write(header)

    def _write(self, doc: dict) -> None:
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")

    def event(self, event: dict) -> None:
        self._write(event)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


def read_events(path: str | Path) -> list[dict]:
    """Parse a telemetry JSONL file back into its event dicts."""
    events = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events
