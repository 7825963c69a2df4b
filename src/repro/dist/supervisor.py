"""Supervised shard fleets: detect dead/hung workers, retry, quarantine.

:func:`launch` forks ``min(workers, pending)`` worker processes once
and feeds them shard attempts — ``(spec path, fault epoch)`` over a
pipe — refilling a worker the moment it reports its attempt done.  The
supervisor loop handles the failure modes the chaos suite injects:

* **dead worker** — the worker process exits mid-attempt (crash,
  SIGKILL, unhandled exception).  Its shard is re-queued with
  exponential backoff, up to ``retries`` extra attempts, and a fresh
  worker is forked for the slot when the next attempt is ready.
* **hung worker** — the worker is alive but its lease (see
  :mod:`repro.dist.lease`) has not changed for longer than its TTL of
  the supervisor's own monotonic clock, whatever clock stamped the
  file.  The supervisor SIGKILLs it and re-queues the shard; a fresh
  worker takes the slot.
* **corrupt result** — the worker reported the attempt done but its
  result file fails :func:`repro.dist.manifest.validate_result`
  (truncated, wrong keys) or the manifest has no completion line for
  it.  The bad file is deleted and the shard re-queued; the worker
  stays.
* **poison shard** — a shard that fails every attempt is *quarantined*:
  a marker file lands in ``<job_dir>/quarantine/`` and the launch
  raises :class:`ShardJobError` with a per-shard failure report instead
  of hanging or silently under-merging.

Because a shard's result data is a pure function of its spec and
completion is an atomic rename + manifest append, any retry schedule
merges **byte-identical** to the clean single-host run — the property
the chaos tests assert under injected crashes, stalls and corruption.

The supervisor is event-driven: it blocks on the workers' pipes and
process sentinels, so a report or an exit wakes it at once and the
next ready shard starts on the idle worker without delay.  The wait is
bounded by the next backoff expiry (when a slot is free) and by the
next lease check, which runs every ``lease_ttl_s / 4`` — the cadence
workers renew at — so a hung worker is SIGKILLed within about 1.25 TTL
of the supervisor first seeing its last renewal.  When the queue
drains, every worker is told to exit and joined before :func:`launch`
returns; on :class:`ShardJobError` or an interrupt the same happens in
a ``finally`` (busy workers are killed), so no worker outlives the
call.

Every supervision event is appended to ``<job_dir>/supervisor.jsonl``
(the audit log ``repro shard status`` reads for retry counts) and
counted through :mod:`repro.obs` (``dist.retries``,
``dist.lease_expired``, ``dist.quarantined``).

Each attempt runs in a fresh fault *epoch* (``$REPRO_FAULT_EPOCH`` =
attempt number) with fresh per-site call counters
(:func:`repro.faults.begin_attempt`), so one-shot ``@N`` faults from
:mod:`repro.faults` kill every first attempt and leave the retry
clean, while probability-1.0 faults stay poisonous through every
attempt and exercise the quarantine path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro import faults, obs, schema
from repro.dist.lease import LeaseWatch, lease_path_for
from repro.dist.spec import ShardSpec
from repro.durable import append_line, atomic_write

SUPERVISOR_LOG = "supervisor.jsonl"
QUARANTINE_DIR = "quarantine"

#: Default number of *extra* attempts a failed shard gets.
DEFAULT_RETRIES = 2

#: Base of the exponential re-queue backoff (``backoff * 2**(n-1)``).
DEFAULT_BACKOFF_S = 0.5

#: The execution knobs of :func:`launch` (``shard launch`` flags),
#: checked before the job directory is read.
WORKERS = schema.Knob(int, ge=1, label="workers", flags=("--workers",))
RETRIES = schema.Knob(int, ge=0, label="retries", flags=("--retries",))
BACKOFF = schema.Knob(float, ge=0, label="backoff", flags=("--backoff",))
LEASE_TTL = schema.Knob(float, gt=0, label="lease TTL", flags=("--lease-ttl",))


def quarantine_dir_for(job_dir: str | Path) -> Path:
    """The directory holding a job's poison-shard markers."""
    return Path(job_dir) / QUARANTINE_DIR


def quarantine_path_for(job_dir: str | Path, shard: ShardSpec) -> Path:
    """The quarantine marker of one shard."""
    return quarantine_dir_for(job_dir) / shard.file_name


def quarantined_indices(job_dir: str | Path) -> tuple[int, ...]:
    """Indices of currently quarantined shards, from their markers."""
    qdir = quarantine_dir_for(job_dir)
    if not qdir.is_dir():
        return ()
    found = []
    for path in qdir.glob("*.json"):
        try:
            found.append(int(json.loads(path.read_text())["index"]))
        except (OSError, ValueError, KeyError):
            continue
    return tuple(sorted(found))


def log_event(job_dir: str | Path, event: dict) -> None:
    """Append one supervision event (single ``O_APPEND`` write)."""
    line = json.dumps({"ts": time.time(), **event})
    append_line(Path(job_dir) / SUPERVISOR_LOG, line)


def retry_counts(job_dir: str | Path) -> dict[int, int]:
    """Per-shard-index retry totals from the supervision log."""
    log = Path(job_dir) / SUPERVISOR_LOG
    counts: dict[int, int] = {}
    if not log.exists():
        return counts
    for line in log.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if event.get("event") == "retry":
            idx = int(event["index"])
            counts[idx] = counts.get(idx, 0) + 1
    return counts


@dataclass(frozen=True)
class ShardFailure:
    """One exhausted shard: what it was and why every attempt died."""

    index: int
    key: str
    attempts: int
    reasons: tuple[str, ...]


class ShardJobError(RuntimeError):
    """A launch ended with quarantined shards; carries the full report."""

    def __init__(self, job_dir: Path, failures: tuple[ShardFailure, ...]):
        self.job_dir = job_dir
        self.failures = failures
        lines = [
            f"shard job failed: {len(failures)} shard(s) quarantined after "
            f"exhausting retries (markers in {quarantine_dir_for(job_dir)})"
        ]
        for f in failures:
            lines.append(
                f"  shard {f.index:04d} ({f.key}): {f.attempts} attempt(s); "
                + "; ".join(f.reasons)
            )
        super().__init__("\n".join(lines))

    @property
    def report(self) -> str:
        return str(self)


def _worker_main(conn, inherited, lease_ttl_s: float) -> None:
    """Worker process body: run the ``(spec path, epoch)`` attempts the
    supervisor sends down ``conn``, report each one back, and exit on
    ``None``, or when the supervisor is gone.  Any exception fails the
    attempt with exit code 1."""
    from repro.dist.runner import run_shard_file

    # the fork copied the supervisor's ends of every worker pipe; with
    # them closed, a dead supervisor reads as EOF here
    for end in inherited:
        end.close()
    try:
        while True:
            try:
                task = conn.recv()
            except EOFError:
                break
            if task is None:
                break
            spec_path, epoch = task
            faults.begin_attempt(epoch)
            run_shard_file(spec_path, lease_ttl_s=lease_ttl_s)
            conn.send(epoch)
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        os._exit(1)
    os._exit(0)


@dataclass
class _Attempt:
    shard: ShardSpec
    epoch: int
    ready_at: float  # monotonic time this attempt may start


@dataclass
class _Worker:
    proc: "multiprocessing.process.BaseProcess"
    conn: "multiprocessing.connection.Connection"
    attempt: _Attempt | None = None  # the attempt it runs; None when idle
    killed_reason: str | None = None


def launch(
    job_dir: str | Path,
    workers: int | None = None,
    *,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    lease_ttl_s: float | None = None,
):
    """Run every pending shard of a job under local supervision: the
    resume story plus failure detection, capped retries and quarantine
    (module docstring).

    Completed shards (per the checkpoint manifest) are skipped, so
    re-launching an interrupted job re-runs only the missing shards.
    ``workers`` defaults to ``min(pending, cpu_count)``.  Ready shards
    start the moment a worker is idle; between starts the supervisor
    blocks until a worker reports or exits, a backoff expires or a
    lease check (every ``lease_ttl_s / 4``) is due.  No worker process
    outlives the call, whether it returns or raises.

    Returns the job's :class:`~repro.dist.manifest.LaunchReport`
    (``ran``/``skipped`` exactly as before, plus ``retried`` and
    ``quarantined``); raises :class:`ShardJobError` if any shard
    exhausted its attempts, and :class:`repro.schema.SchemaError` (a
    ``ValueError``) before any work if a knob is out of range
    (``workers < 1``, ``lease_ttl_s <= 0``, negative retries or backoff).
    """
    from multiprocessing.connection import wait

    from repro.dist.lease import DEFAULT_LEASE_TTL_S
    from repro.dist.manifest import (
        LaunchReport,
        ManifestTail,
        load_job,
        pending_shards,
        results_dir_for,
        shards_dir_for,
        validate_result,
    )

    if workers is not None:
        WORKERS.check("workers", workers)
    if lease_ttl_s is not None:
        LEASE_TTL.check("lease_ttl_s", lease_ttl_s)
    RETRIES.check("retries", retries)
    BACKOFF.check("backoff_s", backoff_s)
    job_dir = Path(job_dir)
    plan = load_job(job_dir)
    todo = pending_shards(job_dir, plan)
    skipped = tuple(s.index for s in plan.shards if s not in todo)
    if not todo:
        return LaunchReport(ran=(), skipped=skipped)
    if lease_ttl_s is None:
        lease_ttl_s = DEFAULT_LEASE_TTL_S
    if workers is None:
        workers = max(1, min(len(todo), os.cpu_count() or 1))
    slots = min(workers, len(todo))
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()

    # a re-launch is a fresh set of attempts: clear old quarantine marks
    for shard in todo:
        try:
            quarantine_path_for(job_dir, shard).unlink()
        except OSError:
            pass

    shards_dir = shards_dir_for(job_dir)
    results_dir = results_dir_for(job_dir)
    manifest = ManifestTail(job_dir)
    queue: list[_Attempt] = [_Attempt(s, 0, 0.0) for s in todo]
    pool: list[_Worker] = []
    fail_reasons: dict[int, list[str]] = {}
    completed: set[int] = set()
    retried: dict[int, int] = {}
    failures: list[ShardFailure] = []
    watch = LeaseWatch(lease_ttl_s)

    def _fail(attempt: _Attempt, reason: str) -> None:
        shard = attempt.shard
        watch.forget(lease_path_for(job_dir, shard))
        try:
            lease_path_for(job_dir, shard).unlink()
        except OSError:
            pass
        reasons = fail_reasons.setdefault(shard.index, [])
        reasons.append(reason)
        attempts = attempt.epoch + 1
        if len(reasons) <= retries:
            delay = backoff_s * (2 ** (len(reasons) - 1))
            queue.append(_Attempt(shard, attempts, time.monotonic() + delay))
            retried[shard.index] = retried.get(shard.index, 0) + 1
            obs.counter("dist.retries")
            log_event(
                job_dir,
                {
                    "event": "retry",
                    "index": shard.index,
                    "key": shard.key,
                    "attempt": attempts,
                    "backoff_s": delay,
                    "reason": reason,
                },
            )
        else:
            failure = ShardFailure(
                shard.index, shard.key, attempts, tuple(reasons)
            )
            failures.append(failure)
            obs.counter("dist.quarantined")
            atomic_write(
                quarantine_path_for(job_dir, shard),
                json.dumps(
                    {
                        "index": shard.index,
                        "key": shard.key,
                        "attempts": attempts,
                        "reasons": reasons,
                    },
                    indent=1,
                )
                + "\n"
            )
            log_event(
                job_dir,
                {
                    "event": "quarantine",
                    "index": shard.index,
                    "key": shard.key,
                    "attempt": attempts,
                    "reason": reason,
                },
            )

    def _reap(attempt: _Attempt) -> None:
        """Judge an attempt its worker reported finished."""
        shard = attempt.shard
        reason = validate_result(job_dir, shard)
        if reason is None and shard.key not in manifest.read():
            reason = "no completion record in manifest"
        if reason is not None:
            # never merge from a bad file: drop it and re-run the shard
            try:
                (results_dir / shard.file_name).unlink()
            except OSError:
                pass
            _fail(attempt, f"invalid result: {reason}")
            return
        completed.add(shard.index)
        log_event(
            job_dir,
            {
                "event": "done",
                "index": shard.index,
                "key": shard.key,
                "attempt": attempt.epoch + 1,
            },
        )

    def _bury(worker: _Worker) -> None:
        """Drop a dead worker; the attempt it was running fails."""
        worker.proc.join()
        worker.conn.close()
        pool.remove(worker)
        if worker.attempt is not None:
            _fail(
                worker.attempt,
                worker.killed_reason
                or f"worker exited with code {worker.proc.exitcode}",
            )

    def _start_ready() -> None:
        now = time.monotonic()
        for attempt in sorted(queue, key=lambda a: (a.ready_at, a.shard.index)):
            if attempt.ready_at > now:
                continue
            worker = next((w for w in pool if w.attempt is None), None)
            if worker is None:
                if len(pool) >= slots:
                    break
                conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, [conn, *(w.conn for w in pool)], lease_ttl_s),
                    daemon=False,
                )
                proc.start()
                child_conn.close()
                worker = _Worker(proc, conn)
                pool.append(worker)
            queue.remove(attempt)
            worker.attempt = attempt
            spec_path = shards_dir / attempt.shard.file_name
            try:
                worker.conn.send((str(spec_path), attempt.epoch))
            except OSError:
                pass  # it died idle: its exit fails this attempt

    def _check_leases() -> None:
        for worker in pool:
            run = worker.attempt
            if run is None or worker.killed_reason is not None:
                continue
            if watch.stale(lease_path_for(job_dir, run.shard)):
                obs.counter("dist.lease_expired")
                log_event(
                    job_dir,
                    {
                        "event": "lease_expired",
                        "index": run.shard.index,
                        "key": run.shard.key,
                        "attempt": run.epoch + 1,
                    },
                )
                worker.killed_reason = "lease expired (worker hung)"
                worker.proc.kill()

    # workers renew their leases every ttl/4 (see Lease): checking at the
    # same cadence kills a hung worker within about 1.25 TTL of its last beat
    lease_every_s = max(lease_ttl_s / 4.0, 0.01)
    next_lease_check = time.monotonic() + lease_every_s
    try:
        with obs.span("dist.launch", shards=len(todo), workers=workers):
            while queue or any(w.attempt is not None for w in pool):
                _start_ready()
                now = time.monotonic()
                timeout = next_lease_check - now
                busy = sum(w.attempt is not None for w in pool)
                if queue and busy < slots:
                    timeout = min(timeout, min(a.ready_at for a in queue) - now)
                # block until a worker reports or exits, or the timeout is
                # up; with no attempt running this waits out the next backoff
                ready = wait(
                    [w.proc.sentinel for w in pool]
                    + [
                        w.conn
                        for w in pool
                        if w.attempt is not None and w.killed_reason is None
                    ],
                    max(timeout, 0.0),
                )
                for worker in list(pool):
                    dead = worker.proc.sentinel in ready
                    if worker.conn in ready and worker.killed_reason is None:
                        try:
                            worker.conn.recv()
                        except (EOFError, OSError):
                            dead = True  # it died mid-attempt
                        else:
                            attempt, worker.attempt = worker.attempt, None
                            _reap(attempt)
                    if dead:
                        _bury(worker)
                if time.monotonic() >= next_lease_check:
                    _check_leases()
                    next_lease_check = time.monotonic() + lease_every_s
    finally:
        # idle workers are told to exit; busy ones only while unwinding
        # from an error or interrupt, and those are killed
        for worker in pool:
            if worker.attempt is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            else:
                worker.proc.kill()
        for worker in pool:
            worker.proc.join()
            worker.conn.close()

    report = LaunchReport(
        ran=tuple(sorted(completed)),
        skipped=skipped,
        retried=tuple(sorted(retried.items())),
        quarantined=tuple(sorted(f.index for f in failures)),
    )
    if failures:
        raise ShardJobError(job_dir, tuple(sorted(failures, key=lambda f: f.index)))
    return report
