"""Chaos-path integration tests: injected faults, supervised recovery.

The resilience contract, asserted end to end with fixed fault seeds:

* a shard fleet with injected crashes, stalls or result corruption is
  retried by the supervisor and merges **byte-identical** to the clean
  single-host run;
* poison shards exhaust their retries, are quarantined, and fail the
  job loudly with a per-shard report;
* the serve daemon survives dropped/truncated frames, bounds its
  admission queue with ``busy`` frames, enforces per-request
  deadlines, and drains gracefully on SIGTERM;
* the client maps every transport failure to :class:`ServeError` and
  retries idempotent requests back to a byte-identical result;
* a corrupted store object degrades to a miss and a clean recommit.
"""

import json
import os
import random
import signal
import socket as socket_mod
import subprocess
import sys
import threading
import time
import uuid

import pytest

from repro import api, faults
from repro.cli import main
from repro.codes.registry import make_code
from repro.crossbar.montecarlo import simulate_margin_yield
from repro.crossbar.spec import CrossbarSpec
from repro.dist import (
    ShardJobError,
    launch,
    merge_results,
    plan_mc_shards,
    status,
    write_job,
)
from repro.dist.supervisor import SUPERVISOR_LOG, quarantine_dir_for
from repro.exp.designpoint import DesignPoint
from repro.serve import ReproServer, ServeClient, ServeError
from repro.store import ResultStore

SPEC = CrossbarSpec()


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
def socket_path(tmp_path):
    # unix socket paths are limited to ~108 bytes; keep the name short
    path = tmp_path / f"c{uuid.uuid4().hex[:6]}.sock"
    if len(str(path)) > 100:
        path = f"/tmp/repro-{uuid.uuid4().hex[:8]}.sock"
    return str(path)


def mc_plan(shards=2, samples=3000):
    return plan_mc_shards(
        "marginmc", "BGC", 8, shards=shards, samples=samples,
        spec=SPEC, seed=3, k_sigma=2.5, stream_block=1024,
    )


def clean_single_host(samples=3000):
    return simulate_margin_yield(
        SPEC, make_code("BGC", 2, 8), samples=samples, seed=3,
        k_sigma=2.5, stream_block=1024,
    )


def sweep_request():
    points = (DesignPoint.make("TC", 6), DesignPoint.make("GC", 6))
    return api.SweepRequest(points=points, metrics=("yield", "area"))


def chaos_launch(job, **kwargs):
    kwargs.setdefault("backoff_s", 0.05)
    return launch(job, **kwargs)


class TestShardCrashRecovery:
    """kill -9 mid-run, then resume byte-identically — the tentpole claim."""

    @pytest.mark.parametrize(
        "fault",
        ["dist.crash_before_result=@1", "dist.crash_after_result=@1"],
    )
    def test_crashed_workers_retried_byte_identical(
        self, tmp_path, monkeypatch, fault
    ):
        job = tmp_path / "job"
        write_job(job, mc_plan())
        monkeypatch.setenv(faults.ENV_VAR, f"seed=7,{fault}")
        report = chaos_launch(job, retries=2)
        # every first-attempt worker died (the @1 site fires per process)
        assert report.ran == (0, 1)
        assert report.retried  # at least one shard needed a second attempt
        assert report.quarantined == ()
        assert merge_results(job) == clean_single_host()

    def test_corrupt_result_detected_deleted_and_retried(
        self, tmp_path, monkeypatch
    ):
        job = tmp_path / "job"
        write_job(job, mc_plan())
        monkeypatch.setenv(faults.ENV_VAR, "dist.corrupt_result=@1")
        report = chaos_launch(job, retries=2)
        assert report.ran == (0, 1)
        assert report.retried
        assert merge_results(job) == clean_single_host()
        log = (job / SUPERVISOR_LOG).read_text()
        assert "invalid result" in log

    def test_stalled_worker_reaped_via_lease_and_retried(
        self, tmp_path, monkeypatch
    ):
        job = tmp_path / "job"
        write_job(job, mc_plan(shards=1))
        # no value → the worker SIGSTOPs itself: every thread freezes,
        # heartbeat renewal included, and only the lease can expose it
        monkeypatch.setenv(faults.ENV_VAR, "dist.stall=@1")
        ttl = 0.6
        started = time.time()
        report = chaos_launch(job, retries=2, lease_ttl_s=ttl)
        assert report.ran == (0,)
        assert report.retried == ((0, 1),)
        assert merge_results(job) == clean_single_host()
        events = [
            json.loads(line)
            for line in (job / SUPERVISOR_LOG).read_text().splitlines()
        ]
        expired = [e for e in events if e["event"] == "lease_expired"]
        assert len(expired) == 1
        # the stalled worker never exits, so only the supervisor's
        # bounded wait (lease checks every ttl/4) can catch it
        assert expired[0]["ts"] - started < 3 * ttl

    def test_backoff_delays_the_retry_start(self, tmp_path, monkeypatch):
        """Blocking on worker exit never starts a backed-off attempt early."""
        job = tmp_path / "job"
        write_job(job, mc_plan(shards=2, samples=2048))
        monkeypatch.setenv(faults.ENV_VAR, "dist.crash_before_result=@1")
        backoff_s = 0.5
        report = chaos_launch(job, retries=2, backoff_s=backoff_s)
        assert report.retried == ((0, 1), (1, 1))
        assert merge_results(job) == clean_single_host(samples=2048)
        events = [
            json.loads(line)
            for line in (job / SUPERVISOR_LOG).read_text().splitlines()
        ]
        retry_ts = {e["index"]: e["ts"] for e in events if e["event"] == "retry"}
        done_ts = {e["index"]: e["ts"] for e in events if e["event"] == "done"}
        assert sorted(retry_ts) == sorted(done_ts) == [0, 1]
        for index, ts in retry_ts.items():
            assert done_ts[index] >= ts + backoff_s

    def test_poison_shard_quarantined_with_report(self, tmp_path, monkeypatch):
        job = tmp_path / "job"
        write_job(job, mc_plan(shards=2))
        # probability 1.0 stays poisonous through every retry epoch
        monkeypatch.setenv(faults.ENV_VAR, "dist.crash_before_result=1.0")
        with pytest.raises(ShardJobError) as excinfo:
            chaos_launch(job, retries=1)
        err = excinfo.value
        assert len(err.failures) == 2
        assert all(f.attempts == 2 for f in err.failures)
        assert "quarantined" in str(err) and "shard 0000" in str(err)
        assert quarantine_dir_for(job).is_dir()

        st = status(job)
        assert st["quarantined"] == [0, 1]
        assert {r["state"] for r in st["shard_details"]} == {"quarantined"}

        # clearing the fault and re-launching heals the job completely
        monkeypatch.delenv(faults.ENV_VAR)
        report = chaos_launch(job, retries=1)
        assert report.ran == (0, 1)
        assert merge_results(job) == clean_single_host()
        assert status(job)["quarantined"] == []

    def test_cli_launch_with_faults_flag_byte_identical_csv(
        self, tmp_path, monkeypatch, capsys
    ):
        # a valid no-op spec: restored by monkeypatch after main() overwrites
        monkeypatch.setenv(faults.ENV_VAR, "serve.drop=0.0")
        clean, chaotic = tmp_path / "clean", tmp_path / "chaotic"
        plan_args = [
            "shard", "plan", "marginmc", None, "BGC", "-M", "8",
            "--shards", "2", "--samples", "3000", "--seed", "3",
            "--stream-block", "1024", "--k-sigma", "2.5",
        ]
        for job in (clean, chaotic):
            plan_args[3] = str(job)
            assert main(plan_args) == 0
        assert main(["shard", "launch", str(clean)]) == 0
        code = main([
            "--faults", "seed=7,dist.crash_after_result=@1",
            "shard", "launch", str(chaotic),
            "--retries", "2", "--backoff", "0.05",
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["shard", "merge", str(clean), "--format", "csv"]) == 0
        clean_csv = capsys.readouterr().out
        assert main(["shard", "merge", str(chaotic), "--format", "csv"]) == 0
        assert capsys.readouterr().out == clean_csv

    def test_cli_launch_exits_nonzero_on_quarantine(
        self, tmp_path, monkeypatch, capsys
    ):
        # a valid no-op spec: restored by monkeypatch after main() overwrites
        monkeypatch.setenv(faults.ENV_VAR, "serve.drop=0.0")
        job = tmp_path / "job"
        write_job(job, mc_plan(shards=1))
        with pytest.raises(SystemExit, match="quarantined"):
            main([
                "--faults", "dist.crash_before_result=1.0",
                "shard", "launch", str(job),
                "--retries", "0", "--backoff", "0.05",
            ])


class TestServeChaos:
    def test_client_survives_injected_drop_byte_identical(self, socket_path):
        req = sweep_request()
        direct = api.evaluate(req)
        with ReproServer(socket_path).running():
            with faults.injected("serve.drop=@1") as plan:
                client = ServeClient(
                    socket_path, retries=2, backoff_s=0.01,
                    rng=random.Random(0),
                )
                with client:
                    served = client.evaluate(req)
                assert plan.fired["serve.drop"] == 1
        assert served == direct

    def test_drop_without_retries_is_clean_disconnect_error(self, socket_path):
        with ReproServer(socket_path).running():
            with faults.injected("serve.drop=@1"):
                with ServeClient(socket_path, retries=0) as client:
                    with pytest.raises(ServeError) as excinfo:
                        client.evaluate(sweep_request())
        assert excinfo.value.kind == "disconnect"

    def test_socket_timeout_maps_to_serve_error_and_retry_recovers(
        self, socket_path
    ):
        with ReproServer(socket_path).running():
            with faults.injected("serve.latency=@1:0.5"):
                with ServeClient(socket_path, timeout=0.1, retries=0) as c:
                    with pytest.raises(ServeError) as excinfo:
                        c.ping()
                assert excinfo.value.kind == "timeout"
            with faults.injected("serve.latency=@1:0.5"):
                retrying = ServeClient(
                    socket_path, timeout=0.1, retries=2, backoff_s=0.01,
                    rng=random.Random(0),
                )
                with retrying:
                    assert retrying.ping()  # second attempt runs fault-free

    def test_deadline_exceeded_answered_with_deadline_frame(
        self, socket_path, held_sweeps
    ):
        # a held sweep is a deterministic way to keep an evaluate in
        # flight past its budget
        server = ReproServer(socket_path, deadline_s=0.1)
        with server.running():
            with ServeClient(socket_path, retries=0) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.evaluate(sweep_request())
            held_sweeps.set()
        assert excinfo.value.kind == "deadline"
        assert server.counters["deadline_exceeded"] == 1

    def test_deadline_leader_stays_in_flight(
        self, socket_path, held_sweeps, wait_until
    ):
        """A leader past its deadline leaves its computation in flight:
        identical requests still coalesce onto it and it still counts
        against admission."""
        req = sweep_request()
        server = ReproServer(socket_path, deadline_s=0.1, max_pending=1)
        with server.running():
            with ServeClient(socket_path, retries=0) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.evaluate(req)
                assert excinfo.value.kind == "deadline"
                assert len(server._inflight) == 1
                other = api.SweepRequest(
                    points=(DesignPoint.make("BGC", 8),), metrics=("yield",)
                )
                with pytest.raises(ServeError) as excinfo:
                    client.evaluate(other)
                assert excinfo.value.kind == "busy"
                with pytest.raises(ServeError) as excinfo:
                    client.evaluate(req)  # coalesces, then times out too
                assert excinfo.value.kind == "deadline"
            held_sweeps.set()
            wait_until(lambda: not server._inflight)
        assert server.counters["coalesced"] == 1
        assert server.counters["computed"] == 1
        assert server.counters["rejected_busy"] == 1

    def test_overload_answers_busy_with_retry_after(
        self, socket_path, held_sweeps, wait_until
    ):
        server = ReproServer(socket_path, max_pending=1)
        results = {}

        def leader():
            with ServeClient(socket_path) as c:
                results["leader"] = c.evaluate(sweep_request())

        with server.running():
            t = threading.Thread(target=leader)
            t.start()
            wait_until(lambda: server._inflight)
            other = api.SweepRequest(
                points=(DesignPoint.make("BGC", 8),), metrics=("yield",)
            )
            with ServeClient(socket_path, retries=0) as c:
                with pytest.raises(ServeError) as excinfo:
                    c.evaluate(other)
            assert excinfo.value.kind == "busy"
            assert excinfo.value.retry_after == pytest.approx(0.5)
            assert server.counters["rejected_busy"] == 1

            # with retries the same request waits out the backoff and lands
            threading.Timer(0.6, held_sweeps.set).start()
            with ServeClient(
                socket_path, retries=3, backoff_s=0.2, rng=random.Random(1)
            ) as c:
                served = c.evaluate(other)
            t.join(timeout=10)
        assert served == api.evaluate(other)
        assert results["leader"] == api.evaluate(sweep_request())

    def test_truncated_frames_do_not_kill_daemon(self, socket_path):
        with ReproServer(socket_path).running():
            # complete line of invalid JSON → error frame, daemon lives
            raw = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
            raw.connect(socket_path)
            raw.sendall(b'{"truncated \n')
            reply = json.loads(raw.makefile("rb").readline())
            assert reply["ok"] is False
            raw.close()
            # half a frame then a hard close → daemon survives that too
            raw = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
            raw.connect(socket_path)
            raw.sendall(b'{"id": 1, "op": "ev')
            raw.close()
            time.sleep(0.05)
            with ServeClient(socket_path) as client:
                assert client.ping()

    def test_truncated_frame_to_client_is_disconnect_error(self, socket_path):
        srv = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        srv.bind(socket_path)
        srv.listen(1)

        def serve_half_frame():
            conn, _ = srv.accept()
            conn.recv(65536)
            conn.sendall(b'{"id": 1, "ok": true, "frame": "done"')  # no \n
            conn.close()

        t = threading.Thread(target=serve_half_frame)
        t.start()
        try:
            with ServeClient(socket_path, retries=0, timeout=5) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.ping()
            assert excinfo.value.kind == "disconnect"
        finally:
            t.join(timeout=5)
            srv.close()


class TestServeDrain:
    def test_sigterm_finishes_inflight_refuses_new_exits_zero(
        self, socket_path, tmp_path, wait_until
    ):
        # a margin-yield run sized to take about a second holds the
        # request in flight while the daemon is TERMed
        req = api.McRequest(
            kind="marginmc", family="BGC", total_length=8, samples=100_000
        )
        direct = api.simulate(req)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", socket_path],
            env=env,
            cwd=os.getcwd(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 15
            while not os.path.exists(socket_path):
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)

            results = {}
            client = ServeClient(socket_path, retries=0)

            def request():
                with client:
                    results["served"] = client.simulate(req)

            t = threading.Thread(target=request)
            t.start()

            def in_flight():
                with ServeClient(socket_path, retries=0) as probe:
                    return probe.stats()["inflight"] > 0

            wait_until(in_flight, timeout=20)
            proc.send_signal(signal.SIGTERM)
            t.join(timeout=20)
            assert results["served"] == direct  # in-flight work completed

            assert proc.wait(timeout=20) == 0  # drained exit is clean
            assert not os.path.exists(socket_path)
            with pytest.raises((OSError, ServeError)):
                ServeClient(socket_path, retries=0).ping()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_begin_drain_refuses_new_work_with_draining_frame(
        self, socket_path, held_sweeps, wait_until
    ):
        server = ReproServer(socket_path)
        results = {}

        def leader():
            with ServeClient(socket_path) as c:
                results["served"] = c.evaluate(sweep_request())

        with server.running():
            pinned = ServeClient(socket_path, retries=0)  # pre-drain conn
            t = threading.Thread(target=leader)
            t.start()
            wait_until(lambda: server._inflight)
            server._server.get_loop().call_soon_threadsafe(server.begin_drain)
            time.sleep(0.05)  # let the drain flag land on the loop
            with pytest.raises(ServeError) as excinfo:
                pinned.evaluate(sweep_request())
            assert excinfo.value.kind == "draining"
            pinned.close()
            held_sweeps.set()
            t.join(timeout=10)
        assert results["served"] == api.evaluate(sweep_request())


class TestStoreChaos:
    def put_simple(self, store, digest, n=0):
        store.put(digest, "test", {"req": n}, {"value": n})

    def test_corrupt_object_is_miss_then_clean_recommit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with faults.injected("store.corrupt_object=@1") as plan:
            self.put_simple(store, "ab" * 32, n=1)
            assert plan.fired["store.corrupt_object"] == 1
        report = store.verify()
        assert report["checked"] == 1 and len(report["corrupt"]) == 1
        assert store.get("ab" * 32) is None  # corrupt → quarantined miss
        # the recompute path recommits; the next read is a verified hit
        self.put_simple(store, "ab" * 32, n=1)
        assert store.get("ab" * 32) == {"value": 1}
        assert store.verify() == {
            "checked": 1, "ok": 1, "corrupt": [], "quarantined": 0,
        }

    def test_verify_quarantines_on_request(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self.put_simple(store, "cd" * 32, n=2)
        path = store.object_path("cd" * 32)
        path.write_text(path.read_text()[:40])  # truncate in place
        report = store.verify(quarantine=True)
        assert report["quarantined"] == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_cli_store_verify(self, tmp_path, capsys):
        root = tmp_path / "store"
        store = ResultStore(root)
        self.put_simple(store, "ef" * 32, n=3)
        path = store.object_path("ef" * 32)
        path.write_text(path.read_text()[:30])
        assert main(["store", "verify", str(root)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checked"] == 1 and len(report["corrupt"]) == 1
        assert main(["store", "verify", str(root), "--quarantine"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["quarantined"] == 1
        assert path.with_suffix(".corrupt").exists()

    def test_cli_store_requires_a_root(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["store", "verify"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro store: error: no store directory")
        assert err.count("\n") == 1

    def test_cli_store_gc_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["store", "gc"])
        assert exc.value.code == 2
        assert "invalid choice: 'gc'" in capsys.readouterr().err


class TestClientLifecycle:
    def test_constructor_does_not_leak_fd_when_connect_fails(self, tmp_path):
        missing = str(tmp_path / "absent.sock")
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(30):
            with pytest.raises(OSError):
                ServeClient(missing)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_close_is_idempotent_and_safe_after_error(self, socket_path):
        with ReproServer(socket_path).running():
            client = ServeClient(socket_path)
            assert client.ping()
            client._teardown()  # simulate a mid-stream transport death
            client.close()
            client.close()
            with pytest.raises(ServeError, match="client is closed"):
                client.ping()

    def test_running_reraises_bind_failure_immediately(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where a directory must go\n")
        server = ReproServer(blocker / "sub" / "d.sock")
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="failed to start"):
            with server.running():
                pass  # pragma: no cover - never reached
        assert time.monotonic() - start < 5.0
