"""Integration tests for the repro serve daemon, protocol and client."""

import socket
import threading
import uuid

import pytest

from repro import api
from repro.durable import canonical_json
from repro.exp.designpoint import DesignPoint
from repro.serve import ReproServer, ServeClient, ServeError
from repro.serve.daemon import MAX_FRAME_BYTES
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    request_frame,
)
from repro.store import ResultStore


@pytest.fixture
def socket_path(tmp_path):
    # unix socket paths are limited to ~108 bytes; keep the name short
    path = tmp_path / f"s{uuid.uuid4().hex[:6]}.sock"
    if len(str(path)) > 100:
        path = f"/tmp/repro-{uuid.uuid4().hex[:8]}.sock"
    return str(path)


def raw_exchange(socket_path, frame):
    """Send one frame as-is and return the daemon's first reply frame."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.connect(socket_path)
        raw.sendall(encode_frame(frame))
        return decode_frame(raw.makefile("rb").readline())


def sweep_request(*families, length=6):
    points = tuple(DesignPoint.make(f, length) for f in families or ("TC", "GC"))
    return api.SweepRequest(points=points, metrics=("yield", "area"))


class TestProtocol:
    def test_frame_round_trip(self):
        frame = request_frame("simulate", 3, {"kind": "marginmc"}, chunk_size=64)
        assert decode_frame(encode_frame(frame)) == frame

    def test_none_knobs_dropped(self):
        frame = request_frame("simulate", 1, {}, chunk_size=None)
        assert "chunk_size" not in frame and frame["v"] == PROTOCOL_VERSION

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            request_frame("bogus", 1)

    def test_non_object_frame_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            decode_frame(b"[1,2,3]\n")


class TestDaemonKnobs:
    @pytest.mark.parametrize(
        "knobs", [{"max_pending": 0}, {"deadline_s": -1.0}, {"jobs": -2}]
    )
    def test_rejected_at_construction(self, socket_path, knobs):
        """``max_pending=0`` used to refuse every computation as busy."""
        with pytest.raises(ValueError, match="must be"):
            ReproServer(socket_path, **knobs)

    def test_jobs_zero_is_auto(self, socket_path):
        from repro.exp.pipeline import default_jobs

        server = ReproServer(socket_path, jobs=0, deadline_s=0)
        assert server.jobs == default_jobs()


class TestDaemon:
    def test_ping_stats_shutdown(self, socket_path):
        server = ReproServer(socket_path)
        with server.running():
            with ServeClient(socket_path) as client:
                assert client.ping()
                stats = client.stats()
                assert stats["server"]["requests"] >= 1
                assert "store" not in stats  # no store configured
                client.shutdown()

    def test_evaluate_matches_direct(self, socket_path):
        req = sweep_request()
        direct = api.evaluate(req)
        with ReproServer(socket_path).running():
            with ServeClient(socket_path) as client:
                served = client.evaluate(req)
                assert client.last_cached is False
        assert served == direct
        assert served.fields == direct.fields

    def test_warm_request_served_from_store(self, socket_path, tmp_path):
        req = sweep_request()
        store = ResultStore(tmp_path / "store")
        with ReproServer(socket_path, store=store).running():
            with ServeClient(socket_path) as client:
                cold = client.evaluate(req)
                assert client.last_cached is False
                warm = client.evaluate(req)
                assert client.last_cached is True
                stats = client.stats()
        assert warm == cold
        assert stats["server"]["store_hits"] >= 1
        assert stats["store"]["hits"] >= 1

    def test_store_shared_between_daemon_and_direct_path(self, socket_path, tmp_path):
        req = sweep_request()
        store = ResultStore(tmp_path / "store")
        direct = api.evaluate(req, store=store)  # populate before the daemon
        with ReproServer(socket_path, store=store).running():
            with ServeClient(socket_path) as client:
                served = client.evaluate(req)
                assert client.last_cached is True
        assert served == direct

    def test_simulate_and_memsim_match_direct(self, socket_path):
        mc = api.McRequest(kind="marginmc", family="TC", total_length=6, samples=32)
        wl = api.WorkloadRequest(family="TC", total_length=6, accesses=128, instances=2)
        with ReproServer(socket_path).running():
            with ServeClient(socket_path) as client:
                assert client.simulate(mc) == api.simulate(mc)
                assert client.memsim(wl) == api.memsim(wl)

    def test_cavemc_loop_not_reported_cached(self, socket_path, tmp_path):
        """A v1 client's loop cavemc frame is refused, not served the
        batched estimate the store holds."""
        req = api.McRequest(kind="cavemc", family="TC", total_length=6, samples=32)
        store = ResultStore(tmp_path / "store")
        api.simulate(req, store=store)  # commits the batched estimate
        old = {"v": 1, "id": 7, "op": "simulate", "request": req.to_dict()}
        old["method"] = "loop"
        with ReproServer(socket_path, store=store).running():
            reply = raw_exchange(socket_path, old)
        assert reply["ok"] is False and reply["id"] == 7
        assert "result" not in reply and "cached" not in reply

    def test_rejects_other_protocol_versions(self, socket_path):
        with ReproServer(socket_path).running():
            for version in (2, PROTOCOL_VERSION + 1, None):
                frame = request_frame("ping", 1)
                frame["v"] = version
                reply = raw_exchange(socket_path, frame)
                assert reply["ok"] is False and reply["frame"] == "error"
                assert f"v{version}" in reply["error"]
                assert f"v{PROTOCOL_VERSION}" in reply["error"]
            assert raw_exchange(socket_path, request_frame("ping", 2))["ok"]

    def test_bad_chunk_size_rejected_before_the_store(self, socket_path, tmp_path):
        req = api.McRequest(kind="marginmc", family="TC", total_length=6, samples=32)
        store = ResultStore(tmp_path / "store")
        api.simulate(req, store=store)  # a hit would skip compute
        with ReproServer(socket_path, store=store).running():
            with ServeClient(socket_path) as client:
                for bad in (0, -4, 2.5, "64", True):
                    with pytest.raises(ServeError, match="chunk"):
                        client.simulate(req, chunk_size=bad)
                assert client.simulate(req, chunk_size=64) == api.simulate(req)
                assert client.last_cached is True

    def test_warm_simulate_verifies_the_entry_once(
        self, socket_path, tmp_path, monkeypatch
    ):
        from repro.store import core

        req = api.McRequest(kind="marginmc", family="TC", total_length=6, samples=32)
        store = ResultStore(tmp_path / "store")
        api.simulate(req, store=store)  # populate before the daemon
        calls = []
        checksum = core.result_checksum

        def counting_checksum(result):
            calls.append(1)
            return checksum(result)

        monkeypatch.setattr(core, "result_checksum", counting_checksum)
        with ReproServer(socket_path, store=store).running():
            with ServeClient(socket_path) as client:
                assert client.simulate(req) == api.simulate(req)
                assert client.last_cached is True
        assert len(calls) == 1

    def test_store_commits_run_off_the_event_loop(
        self, socket_path, tmp_path, monkeypatch
    ):
        import asyncio

        store = ResultStore(tmp_path / "store")
        on_loop = []
        put = ResultStore.put

        def recording_put(self, *args, **kwargs):
            try:
                asyncio.get_running_loop()
                on_loop.append(True)
            except RuntimeError:
                on_loop.append(False)
            return put(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "put", recording_put)
        mc = api.McRequest(kind="marginmc", family="TC", total_length=6, samples=32)
        wl = api.WorkloadRequest(family="TC", total_length=6, accesses=128, instances=2)
        with ReproServer(socket_path, store=store).running():
            with ServeClient(socket_path) as client:
                client.evaluate(sweep_request())
                client.simulate(mc)
                client.memsim(wl)
        assert on_loop == [False, False, False]

    def test_error_frame_for_bad_request(self, socket_path):
        with ReproServer(socket_path).running():
            with ServeClient(socket_path) as client:
                with pytest.raises(ServeError, match="unexpected request kind"):
                    client._roundtrip("evaluate", {"v": 1, "kind": "bogus"})
                assert client.ping()  # connection survives the error

    @pytest.mark.parametrize("k_sigma", [float("nan"), float("inf"), -1.0])
    def test_error_frame_for_bad_k_sigma(self, socket_path, k_sigma):
        payload = api.McRequest("marginmc", "BGC", 8, samples=64).to_dict()
        payload["k_sigma"] = k_sigma
        with ReproServer(socket_path).running():
            reply = raw_exchange(socket_path, request_frame("simulate", 9, payload))
            assert raw_exchange(socket_path, request_frame("ping", 10))["ok"]
        assert reply["ok"] is False and reply["frame"] == "error"
        assert reply["id"] == 9 and "result" not in reply
        assert "k_sigma must be finite" in reply["error"]

    @pytest.mark.parametrize("bad", [{"r_on": float("nan")}, {"r_on": 1e8}])
    def test_error_frame_for_bad_readout_technology(self, socket_path, bad):
        payload = api.WorkloadRequest("TC", 6, readout="float").to_dict()
        payload.update(bad)
        with ReproServer(socket_path).running():
            reply = raw_exchange(socket_path, request_frame("memsim", 4, payload))
            assert raw_exchange(socket_path, request_frame("ping", 5))["ok"]
        assert reply["ok"] is False and reply["frame"] == "error"
        assert reply["id"] == 4 and "result" not in reply
        assert "r_on" in reply["error"]

    @pytest.mark.parametrize(
        "field, value, word",
        [
            ("sigma_t", float("nan"), "sigma_T"),
            ("raw_kilobytes", float("inf"), "raw density"),
            ("window_margin", 2, "window margin"),
        ],
    )
    def test_error_frame_for_bad_spec(self, socket_path, field, value, word):
        payload = api.McRequest("cavemc", "BGC", 8, samples=64).to_dict()
        payload["spec"][field] = value
        with ReproServer(socket_path).running():
            reply = raw_exchange(socket_path, request_frame("simulate", 6, payload))
            assert raw_exchange(socket_path, request_frame("ping", 7))["ok"]
        assert reply["ok"] is False and reply["frame"] == "error"
        assert reply["id"] == 6 and "result" not in reply
        assert word in reply["error"]

    def test_identical_inflight_requests_coalesce(
        self, socket_path, held_sweeps, wait_until
    ):
        req = sweep_request("TC", "GC", "BGC", length=8)
        server = ReproServer(socket_path)
        results, errors = [], []

        def worker():
            try:
                with ServeClient(socket_path) as client:
                    results.append(client.evaluate(req))
            except Exception as exc:  # noqa: BLE001 — surfaced via the assert
                errors.append(exc)

        with server.running():
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            wait_until(lambda: server.counters["coalesced"] == 3)
            held_sweeps.set()
            for t in threads:
                t.join(timeout=120)
        assert not errors
        assert len(results) == 4
        direct = api.evaluate(req)
        assert all(r == direct for r in results)
        assert server.counters["coalesced"] >= 1
        assert server.counters["computed"] + server.counters["coalesced"] >= 4

    def test_concurrent_different_sweeps_match_direct(
        self, socket_path, held_sweeps, wait_until
    ):
        # same spec/metrics/params, different point grids, both in flight
        first = sweep_request("TC")
        second = sweep_request("GC")
        server = ReproServer(socket_path)
        results = {}

        def worker(name, req):
            with ServeClient(socket_path) as client:
                results[name] = client.evaluate(req)

        with server.running():
            threads = [
                threading.Thread(target=worker, args=("tc", first)),
                threading.Thread(target=worker, args=("gc", second)),
            ]
            for t in threads:
                t.start()
            wait_until(lambda: len(server._inflight) == 2)
            held_sweeps.set()
            for t in threads:
                t.join(timeout=120)
        assert results["tc"] == api.evaluate(first)
        assert results["gc"] == api.evaluate(second)

    def test_done_frame_result_is_the_store_entry_payload(
        self, socket_path, tmp_path
    ):
        requests = {
            "evaluate": sweep_request(),
            "simulate": api.McRequest(
                kind="marginmc", family="TC", total_length=6, samples=32
            ),
            "memsim": api.WorkloadRequest(
                family="TC", total_length=6, accesses=128, instances=2
            ),
        }
        facades = {
            "evaluate": api.evaluate,
            "simulate": api.simulate,
            "memsim": api.memsim,
        }
        store = ResultStore(tmp_path / "store")
        with ReproServer(socket_path, store=store).running():
            for n, (op, req) in enumerate(requests.items()):
                frame = request_frame(op, n, req.to_dict())
                cold = raw_exchange(socket_path, frame)
                warm = raw_exchange(socket_path, frame)
                assert (cold["frame"], cold["cached"]) == ("done", False)
                assert (warm["frame"], warm["cached"]) == ("done", True)
                entry = store.get(api.request_digest(req))
                assert canonical_json(cold["result"]) == canonical_json(entry)
                assert canonical_json(warm["result"]) == canonical_json(entry)
                if op != "memsim":  # memsim's cache section is run-dependent
                    encoded = api.KINDS[req.kind].encode(facades[op](req))
                    assert canonical_json(cold["result"]) == canonical_json(encoded)

    def test_large_sweep_frame_served(self, socket_path):
        # a 1,200-point canonical request is ~87 KB, past asyncio's
        # default 64 KiB line limit
        points = tuple(
            DesignPoint.make("TC", 6, sigma_t=0.01 + 1e-5 * i) for i in range(1200)
        )
        req = api.SweepRequest(points=points, metrics=("area",))
        assert len(encode_frame(request_frame("evaluate", 1, req.to_dict()))) > 65536
        with ReproServer(socket_path).running():
            with ServeClient(socket_path, retries=0) as client:
                served = client.evaluate(req)
        assert served == api.evaluate(req)

    def test_over_limit_line_gets_error_frame_and_daemon_lives(self, socket_path):
        server = ReproServer(socket_path)
        with server.running():
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.connect(socket_path)
                try:
                    raw.sendall(b"x" * (MAX_FRAME_BYTES + 1) + b"\n")
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the daemon closed the connection after its reply
                stream = raw.makefile("rb")
                reply = decode_frame(stream.readline())
                try:  # then the connection closes
                    tail = stream.readline()
                except ConnectionResetError:  # closed with our bytes unread
                    tail = b""
                assert tail == b""
            assert reply["ok"] is False and reply["frame"] == "error"
            assert reply["id"] is None and "kind" not in reply
            assert str(MAX_FRAME_BYTES) in reply["error"]
            with ServeClient(socket_path) as client:
                assert client.ping()
                assert client.evaluate(sweep_request()) == api.evaluate(sweep_request())

    def test_clean_shutdown_removes_socket(self, socket_path, tmp_path):
        import os

        server = ReproServer(socket_path)
        with server.running():
            with ServeClient(socket_path) as client:
                client.ping()
        assert not os.path.exists(socket_path)

    def test_stale_socket_file_replaced_on_start(self, socket_path):
        from pathlib import Path

        Path(socket_path).touch()  # debris from a killed daemon
        with ReproServer(socket_path).running():
            with ServeClient(socket_path) as client:
                assert client.ping()
