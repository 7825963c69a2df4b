"""Worker reuse under ``repro.dist.launch``: one fork per slot, not per attempt.

``launch`` forks ``min(workers, pending)`` worker processes once and
sends them shard attempts over a pipe.  These tests pin what that
buys and what it must not change: a clean job starts one process per
slot; a crash or a lease kill replaces only the worker it hit; no
worker outlives the call, however it ends; a reused worker gives each
attempt fresh fault counters; and a launch reads each manifest line
once, however many shards it runs.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import faults
from repro.codes.registry import make_code
from repro.crossbar.montecarlo import simulate_margin_yield
from repro.crossbar.spec import CrossbarSpec
from repro.dist import launch, merge_results, plan_mc_shards, run_shard, write_job
from repro.dist import runner, supervisor
from repro.dist.manifest import MANIFEST_NAME, manifest_path_for
from repro.durable import append_line

SPEC = CrossbarSpec()
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.delenv(faults.EPOCH_ENV_VAR, raising=False)
    faults.deactivate()
    monkeypatch.setattr(faults, "_env_spec", None)
    monkeypatch.setattr(faults, "_env_plan", None)
    yield
    faults.deactivate()


@pytest.fixture
def started(monkeypatch):
    """Every process ``launch`` starts, in start order."""
    procs = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        procs.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return procs


def mc_job(tmp_path, shards, samples=None):
    samples = samples if samples is not None else 1024 * shards
    plan = plan_mc_shards(
        "marginmc", "BGC", 8, shards=shards, samples=samples,
        spec=SPEC, seed=3, k_sigma=2.5, stream_block=1024,
    )
    job = tmp_path / f"job{shards}"
    write_job(job, plan)
    return job, samples


def single_host(samples):
    return simulate_margin_yield(
        SPEC, make_code("BGC", 2, 8), samples=samples, seed=3,
        k_sigma=2.5, stream_block=1024,
    )


def all_joined(procs):
    # ``exitcode`` reaps without blocking: None means still running
    return all(p.exitcode is not None for p in procs)


def test_clean_launch_forks_one_worker_per_slot(tmp_path, started):
    job, samples = mc_job(tmp_path, shards=8)
    report = launch(job, workers=2)
    assert report.ran == tuple(range(8)) and report.retried == ()
    assert len(started) == 2
    assert all_joined(started)
    assert merge_results(job) == single_host(samples)


@pytest.mark.parametrize(
    "fault", ["dist.crash_before_result=@1", "dist.stall=@1"]
)
def test_crash_or_lease_kill_replaces_only_that_worker(
    tmp_path, monkeypatch, started, fault
):
    """Shard 1's first attempt crashes (or freezes until its lease
    expires).  Only that worker dies; the other runs on to the end, and
    a fresh worker is forked only if the retry finds no idle one."""
    job, samples = mc_job(tmp_path, shards=4)
    log = tmp_path / "attempts.log"
    real = runner.run_shard_file

    def run_with_victim(spec_path, **kwargs):
        index = int(Path(spec_path).name[:4])
        epoch = faults.FaultPlan.epoch()
        append_line(log, f"{index} {epoch} {os.getpid()}")
        if index == 1 and epoch == 0:
            with faults.injected(fault):
                return real(spec_path, **kwargs)
        return real(spec_path, **kwargs)

    monkeypatch.setattr(runner, "run_shard_file", run_with_victim)
    report = launch(job, workers=2, backoff_s=0.05, lease_ttl_s=0.6)
    assert report.ran == (0, 1, 2, 3)
    assert report.retried == ((1, 1),)
    assert all_joined(started)
    assert len(started) in (2, 3)
    assert sum(p.exitcode != 0 for p in started) == 1
    attempts = [line.split() for line in log.read_text().splitlines()]
    assert len(attempts) == 5
    assert {int(pid) for *_, pid in attempts} == {p.pid for p in started}
    victim = next(pid for index, epoch, pid in attempts if (index, epoch) == ("1", "0"))
    # the victim's worker ran nothing after the attempt that killed it
    assert [a for a in attempts if a[2] == victim][-1][:2] == ["1", "0"]
    assert merge_results(job) == single_host(samples)


def test_no_worker_outlives_a_failed_launch(tmp_path, monkeypatch, started):
    job, _ = mc_job(tmp_path, shards=3)
    monkeypatch.setenv(faults.ENV_VAR, "dist.crash_after_result=1.0")
    with pytest.raises(supervisor.ShardJobError):
        launch(job, workers=2, retries=1, backoff_s=0.01)
    assert len(started) >= 2
    assert all_joined(started)
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_an_interrupted_launch(tmp_path, monkeypatch, started):
    """An interrupt in the supervisor loop kills a busy worker and stops
    an idle one before it propagates."""
    job, _ = mc_job(tmp_path, shards=3)
    log_event = supervisor.log_event

    def interrupt_on_done(job_dir, event):
        log_event(job_dir, event)
        if event["event"] == "done":
            raise KeyboardInterrupt

    monkeypatch.setattr(supervisor, "log_event", interrupt_on_done)
    with pytest.raises(KeyboardInterrupt):
        launch(job, workers=2)
    assert len(started) == 2
    assert all_joined(started)


def test_each_attempt_gets_fresh_fault_counters(tmp_path, monkeypatch):
    """One worker runs all three shards; ``@1`` still fires on the first
    call of every shard's first attempt, not only on shard 0's."""
    job, samples = mc_job(tmp_path, shards=3)
    monkeypatch.setenv(faults.ENV_VAR, "dist.corrupt_result=@1")
    report = launch(job, workers=1, backoff_s=0.01)
    assert report.retried == ((0, 1), (1, 1), (2, 1))
    assert merge_results(job) == single_host(samples)


class _CountingReader:
    """A manifest file handle that tallies whole-file and total reads."""

    def __init__(self, fh, tally):
        self._fh = fh
        self._tally = tally

    def read(self, *args):
        if self._fh.tell() == 0:
            self._tally["from_start"] += 1
        data = self._fh.read(*args)
        self._tally["bytes"] += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("shards", [2, 8])
def test_launch_reads_each_manifest_line_once(tmp_path, monkeypatch, shards):
    """The completion check tails the manifest: the number of whole-file
    reads does not grow with the shard count, and no byte is read twice."""
    job, _ = mc_job(tmp_path, shards=shards)
    tally = {"from_start": 0, "bytes": 0}
    path_open = Path.open

    def counting_open(self, *args, **kwargs):
        fh = path_open(self, *args, **kwargs)
        if self.name == MANIFEST_NAME:
            return _CountingReader(fh, tally)
        return fh

    monkeypatch.setattr(Path, "open", counting_open)
    launch(job, workers=2)
    monkeypatch.undo()
    assert tally["from_start"] == 1
    assert tally["bytes"] == manifest_path_for(job).stat().st_size


def test_run_shard_reports_its_own_cache_counts():
    """A worker that runs many shards reports each shard's own cache
    hits and misses, not the process's running totals."""
    shard = plan_mc_shards(
        "marginmc", "BGC", 8, shards=2, samples=2048,
        spec=SPEC, seed=3, k_sigma=2.5, stream_block=1024,
    ).shards[1]
    run_shard(shard)  # warm this process's caches
    first, second = run_shard(shard), run_shard(shard)
    assert first["cache"] == second["cache"]
    assert first["cache"]["make_code"]["misses"] == 0
    assert first["cache"]["make_code"]["hits"] >= 1


ORPHAN_SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    from pathlib import Path
    from repro.dist import launch, runner

    real = runner.run_shard_file

    def run(spec_path, **kwargs):
        index = int(Path(spec_path).name[:4])
        os.write(1, f"{index} {os.getpid()}\\n".encode())
        if index == 1:
            time.sleep(120)
        return real(spec_path, **kwargs)

    runner.run_shard_file = run
    launch(sys.argv[1], workers=2)
    """
)


def _exited(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_idle_worker_exits_when_its_supervisor_is_killed(tmp_path):
    """A SIGKILLed supervisor leaves no idle worker waiting forever for
    its next attempt: the worker reads the closed pipe as the end."""
    job, _ = mc_job(tmp_path, shards=2)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SCRIPT, str(job)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    pids = {}
    try:
        while len(pids) < 2:
            line = proc.stdout.readline()
            assert line, "the supervisor died before both shards started"
            index, pid = line.split()
            pids[int(index)] = int(pid)
        deadline = time.monotonic() + 60
        manifest = manifest_path_for(job)
        while not (manifest.exists() and manifest.read_text().strip()):
            assert time.monotonic() < deadline, "shard 0 never completed"
            time.sleep(0.05)
        time.sleep(0.2)  # shard 0's worker reports and goes idle
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while not _exited(pids[0]):
            assert time.monotonic() < deadline, "idle worker outlived its supervisor"
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
