"""Job directory layout, checkpoint manifest and local orchestrator.

A planned job materialises as one directory — the unit an orchestrator
(or a shared filesystem between hosts) moves around::

    <job_dir>/
        job.json            # job description + ordered shard listing
        shards/NNNN-<key>.json    # one self-describing ShardSpec each
        results/NNNN-<key>.json   # one result document per finished shard
        manifest.jsonl      # append-only completion log (the checkpoint)

The manifest is the commit log: the runner commits a fully-written
result file (:func:`repro.durable.atomic_write`) *before* appending its
line, so every manifest entry points at a complete result.  Completion
is judged by *both* signals — a manifest line whose shard key matches
the plan **and** an existing result file — which makes resume
conservative: truncating the manifest (a killed run) forces the
affected shards to re-run even if their result files survived.

Multiple hosts can share one job directory: each appends its own
manifest lines (:func:`repro.durable.append_line`) and shard files are
content-keyed, so two hosts accidentally running the same shard write
identical result *data* (the timing/telemetry fields differ, but the
atomic replace means whichever write lands last is still a complete,
correct document).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.dist.spec import OLD_LAYOUT, ShardPlan, ShardSpec
from repro.durable import append_line, atomic_write

JOB_FILE = "job.json"
SHARDS_DIR = "shards"
RESULTS_DIR = "results"
MANIFEST_NAME = "manifest.jsonl"


def shards_dir_for(job_dir: str | Path) -> Path:
    """The directory holding a job's shard spec files."""
    return Path(job_dir) / SHARDS_DIR


def results_dir_for(job_dir: str | Path) -> Path:
    """The directory holding a job's shard result files."""
    return Path(job_dir) / RESULTS_DIR


def manifest_path_for(job_dir: str | Path) -> Path:
    """The append-only completion manifest of a job directory."""
    return Path(job_dir) / MANIFEST_NAME


def write_job(job_dir: str | Path, plan: ShardPlan) -> Path:
    """Materialise a plan: ``job.json`` plus one spec file per shard."""
    job_dir = Path(job_dir)
    results_dir_for(job_dir).mkdir(parents=True, exist_ok=True)
    for shard in plan.shards:
        atomic_write(
            shards_dir_for(job_dir) / shard.file_name,
            json.dumps(shard.to_dict(), indent=1) + "\n",
        )
    listing = [
        {"index": s.index, "key": s.key, "file": s.file_name} for s in plan.shards
    ]
    atomic_write(
        job_dir / JOB_FILE,
        json.dumps({"job": plan.job, "shards": listing}, indent=1) + "\n",
    )
    return job_dir


def load_job(job_dir: str | Path) -> ShardPlan:
    """Rebuild the plan from a job directory (shard specs re-read).

    A directory planned with the older shard layout is refused with a
    ``ValueError`` asking for a re-plan.
    """
    job_dir = Path(job_dir)
    doc = json.loads((job_dir / JOB_FILE).read_text())
    if "request" not in doc.get("job", {}):
        raise ValueError(f"job directory {job_dir} {OLD_LAYOUT}")
    shards = []
    for entry in doc["shards"]:
        spec_path = shards_dir_for(job_dir) / entry["file"]
        shard = ShardSpec.from_dict(json.loads(spec_path.read_text()))
        if shard.key != entry["key"]:
            raise ValueError(
                f"shard file {entry['file']} does not match its listed "
                f"content key (edited or corrupted?)"
            )
        shards.append(shard)
    return ShardPlan(job=doc["job"], shards=tuple(shards))


def record_completion(job_dir: str | Path, shard: ShardSpec, result: dict) -> None:
    """Append one completion line to the checkpoint manifest.

    A single ``O_APPEND`` write of one line, safe for concurrent
    writers sharing the directory across processes or hosts.
    """
    line = json.dumps(
        {
            "index": shard.index,
            "key": shard.key,
            "file": shard.file_name,
            "units": result["units"],
            "elapsed_s": result["elapsed_s"],
        }
    )
    append_line(manifest_path_for(job_dir), line)


class ManifestTail:
    """A job's completion lines, read incrementally.

    Each :meth:`read` parses only the complete lines appended since the
    previous one (a line still being written waits for the next read),
    so a supervisor checking one completion per finished shard reads
    every manifest byte once instead of the whole file per shard.
    """

    def __init__(self, job_dir: str | Path) -> None:
        self.path = manifest_path_for(job_dir)
        #: Completion-line fields keyed by shard key (last line wins).
        self.entries: dict[str, dict] = {}
        self._offset = 0

    def read(self) -> dict[str, dict]:
        """Fold in the lines appended since the last read; all entries."""
        try:
            with self.path.open("rb") as fh:
                if os.fstat(fh.fileno()).st_size < self._offset:
                    # truncated behind our back: start over
                    self.entries.clear()
                    self._offset = 0
                fh.seek(self._offset)
                chunk = fh.read()
        except FileNotFoundError:
            return self.entries
        end = chunk.rfind(b"\n") + 1
        for line in chunk[:end].splitlines():
            if line.strip():
                entry = json.loads(line)
                self.entries[entry["key"]] = entry
        self._offset += end
        return self.entries


def completed_keys(job_dir: str | Path) -> set[str]:
    """Shard keys with a manifest line *and* an existing result file."""
    results = results_dir_for(job_dir)
    return {
        key
        for key, entry in ManifestTail(job_dir).read().items()
        if (results / entry["file"]).exists()
    }


def pending_shards(job_dir: str | Path, plan: ShardPlan | None = None) -> list:
    """Planned shards not yet recorded complete, in index order."""
    plan = plan if plan is not None else load_job(job_dir)
    done = completed_keys(job_dir)
    return [s for s in plan.shards if s.key not in done]


#: The :func:`read_result` reason of a result file that does not exist.
RESULT_MISSING = "result file missing"


def read_result(job_dir: str | Path, shard: ShardSpec) -> tuple[dict | None, str | None]:
    """A shard's parsed result document, or None and why it cannot be merged.

    The one result check, on one parse of the file:
    :func:`repro.dist.merge.load_results` refuses a file it rejects,
    and the supervisor catches a truncated or mismatched result (and
    re-runs the shard) *before* a merge would.
    """
    path = results_dir_for(job_dir) / shard.file_name
    try:
        doc = json.loads(path.read_bytes())
    except FileNotFoundError:
        return None, RESULT_MISSING
    except (OSError, ValueError):
        return None, "result file unreadable or truncated"
    if not isinstance(doc, dict):
        return None, "result document is not an object"
    if doc.get("job_key") != shard.job_key:
        return None, f"job key mismatch (got {doc.get('job_key')!r})"
    if doc.get("shard_key") != shard.key:
        return None, f"shard key mismatch (got {doc.get('shard_key')!r})"
    if "data" not in doc:
        return None, "result document has no data section"
    return doc, None


def validate_result(job_dir: str | Path, shard: ShardSpec) -> str | None:
    """Why a shard's result file cannot be merged, or None if it can."""
    return read_result(job_dir, shard)[1]


@dataclass(frozen=True)
class LaunchReport:
    """What one ``launch`` call did: shard indices run vs. skipped.

    ``retried`` lists ``(index, retry_count)`` pairs for shards that
    needed more than one attempt; ``quarantined`` the indices that
    exhausted every attempt (in which case ``launch`` raises instead of
    returning, and the report lives on the error).
    """

    ran: tuple[int, ...]
    skipped: tuple[int, ...]
    retried: tuple[tuple[int, int], ...] = ()
    quarantined: tuple[int, ...] = ()


#: A completed shard whose elapsed time exceeds this multiple of the
#: median completed-shard time is flagged as a straggler.
STRAGGLER_FACTOR = 2.0


def status(job_dir: str | Path) -> dict:
    """Progress summary of a job directory (JSON-friendly).

    Beyond the manifest-derived counts, every shard row reports its
    result file's size and mtime straight from the filesystem — on a
    multi-host NFS job directory that is the cheap staleness signal: a
    shard whose result never appears, or whose telemetry stream stops
    growing, is stuck on some host.  Completed shards get a throughput
    (``units_per_s``) from their manifest line, the job gets an
    aggregate throughput and an ETA over the pending units, and
    completed shards slower than :data:`STRAGGLER_FACTOR` times the
    median are flagged.

    Supervision state rides along: a pending shard with a live lease
    file shows as ``running``, with an expired one as ``stale``, with a
    quarantine marker as ``quarantined``; per-shard ``retries`` come
    from the supervision log, and the job-level ``stale`` / ``retried``
    / ``quarantined`` lists summarise them.
    """
    import statistics

    from repro.dist.lease import lease_path_for, read_lease
    from repro.dist.supervisor import quarantined_indices, retry_counts

    job_dir = Path(job_dir)
    plan = load_job(job_dir)
    done = completed_keys(job_dir)
    entries = ManifestTail(job_dir).read()
    results = results_dir_for(job_dir)
    pending = [s.index for s in plan.shards if s.key not in done]
    quarantined = set(quarantined_indices(job_dir))
    retries = retry_counts(job_dir)

    shard_rows = []
    done_units = 0
    done_elapsed = 0.0
    elapsed_by_index: dict[int, float] = {}
    for shard in plan.shards:
        if shard.key in done:
            state = "done"
        elif shard.index in quarantined:
            state = "quarantined"
        else:
            state = "pending"
            lease = read_lease(lease_path_for(job_dir, shard))
            if lease is not None:
                ttl = float(lease.get("ttl_s", 0.0)) or None
                stale = ttl is not None and lease["age_s"] > ttl
                state = "stale" if stale else "running"
        row: dict = {
            "index": shard.index,
            "units": shard.units,
            "state": state,
            "retries": retries.get(shard.index, 0),
        }
        result_path = results / shard.file_name
        if result_path.exists():
            st = result_path.stat()
            row["result_bytes"] = st.st_size
            row["result_mtime"] = st.st_mtime
        entry = entries.get(shard.key)
        if shard.key in done and entry is not None:
            elapsed = float(entry["elapsed_s"])
            row["elapsed_s"] = elapsed
            row["units_per_s"] = entry["units"] / max(elapsed, 1e-9)
            done_units += entry["units"]
            done_elapsed += elapsed
            elapsed_by_index[shard.index] = elapsed
        shard_rows.append(row)

    stragglers = []
    if len(elapsed_by_index) >= 2:
        median = statistics.median(elapsed_by_index.values())
        stragglers = sorted(
            idx
            for idx, elapsed in elapsed_by_index.items()
            if elapsed > STRAGGLER_FACTOR * median
        )
    for row in shard_rows:
        row["straggler"] = row["index"] in stragglers

    pending_units = sum(s.units for s in plan.shards if s.index in set(pending))
    units_per_s = done_units / done_elapsed if done_elapsed > 0 else None
    eta_s = (
        pending_units / units_per_s if units_per_s and pending_units else None
    )
    return {
        "job_key": plan.key,
        "kind": plan.kind,
        "shards": len(plan.shards),
        "completed": len(plan.shards) - len(pending),
        "pending": pending,
        "units_total": sum(s.units for s in plan.shards),
        "units_done": done_units,
        "units_pending": pending_units,
        "units_per_s": units_per_s,
        "eta_s": eta_s,
        "stragglers": stragglers,
        "stale": sorted(r["index"] for r in shard_rows if r["state"] == "stale"),
        "retried": sorted((idx, n) for idx, n in retries.items()),
        "quarantined": sorted(quarantined),
        "shard_details": shard_rows,
    }
