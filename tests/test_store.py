"""Unit tests for the content-addressed result store (repro.store)."""

import json

import pytest

from repro import api
from repro.exp.designpoint import DesignPoint
from repro.store import (
    STORE_ENV_VAR,
    ResultStore,
    default_store,
    reset_store_counters,
    store_counters,
)


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_store_counters()
    yield
    reset_store_counters()


def make_store(tmp_path, **kw):
    return ResultStore(tmp_path / "store", **kw)


def put_entry(store, tag="a", result=None):
    """Commit one synthetic entry; returns its digest."""
    import hashlib

    from repro.durable import canonical_json

    request = {"v": 1, "kind": "sweep", "tag": tag}
    digest = hashlib.sha256(canonical_json(request).encode()).hexdigest()
    store.put(digest, "sweep", request, result or {"rows": [tag]})
    return digest


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = make_store(tmp_path)
        digest = put_entry(store, result={"rows": [1, 2, 3]})
        assert store.get(digest) == {"rows": [1, 2, 3]}
        assert store.contains(digest)
        assert store_counters()["hits"] == 1
        assert store_counters()["puts"] == 1

    def test_miss_on_unknown_digest(self, tmp_path):
        store = make_store(tmp_path)
        assert store.get("0" * 64) is None
        assert not store.contains("0" * 64)
        assert store_counters()["misses"] == 1

    def test_two_stores_share_one_root(self, tmp_path):
        writer = make_store(tmp_path)
        digest = put_entry(writer)
        reader = make_store(tmp_path)
        assert reader.get(digest) == {"rows": ["a"]}

    def test_entries_survive_reopen(self, tmp_path):
        digest = put_entry(make_store(tmp_path))
        store = make_store(tmp_path)
        assert store.stats()["entries"] == 1
        assert store.live_digests() == [digest]


class TestCorruption:
    def test_truncated_entry_is_a_miss_and_quarantined(self, tmp_path):
        store = make_store(tmp_path)
        digest = put_entry(store)
        path = store.object_path(digest)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(digest) is None
        assert store_counters()["corrupt"] == 1
        assert not path.exists()  # quarantined aside
        assert path.with_suffix(".corrupt").exists()

    def test_checksum_mismatch_is_a_miss(self, tmp_path):
        store = make_store(tmp_path)
        digest = put_entry(store, result={"rows": [1.0]})
        path = store.object_path(digest)
        entry = json.loads(path.read_text())
        entry["result"]["rows"] = [2.0]  # tamper without updating checksum
        path.write_text(json.dumps(entry))
        assert store.get(digest) is None
        assert store_counters()["corrupt"] == 1

    def test_schema_version_mismatch_is_not_contained(self, tmp_path):
        # contains() and get() share one verifier: an entry get() would
        # reject must not count as contained
        store = make_store(tmp_path)
        digest = put_entry(store)
        path = store.object_path(digest)
        entry = json.loads(path.read_text())
        entry["v"] = entry["v"] + 1
        path.write_text(json.dumps(entry))
        assert store.contains(digest) is False
        assert store.get(digest) is None
        assert store_counters()["corrupt"] == 1

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        store = make_store(tmp_path)
        digest = put_entry(store)
        other = "f" * 64
        target = store.object_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        store.object_path(digest).rename(target)
        assert store.get(other) is None
        assert store_counters()["corrupt"] == 1

    def test_recompute_recommits_after_corruption(self, tmp_path):
        store = make_store(tmp_path)
        req = api.SweepRequest(points=(DesignPoint.make("TC", 6),))
        cold = api.evaluate(req, store=store)
        path = store.object_path(api.request_digest(req))
        path.write_text("{not json")
        recomputed = api.evaluate(req, store=store)  # miss -> recompute -> put
        assert recomputed == cold
        assert store.get(api.request_digest(req)) is not None

    def test_manifest_line_without_file_is_not_live(self, tmp_path):
        store = make_store(tmp_path)
        digest = put_entry(store)
        store.object_path(digest).unlink()  # simulates kill between steps
        assert store.live_digests() == []
        assert store.stats()["entries"] == 0
        assert store.get(digest) is None

    def test_malformed_manifest_lines_skipped(self, tmp_path):
        store = make_store(tmp_path)
        digest = put_entry(store)
        with open(store.root / "manifest.jsonl", "a") as fh:
            fh.write("{truncated\n\n[1,2]\n")
        assert store.live_digests() == [digest]
        assert store.get(digest) is not None

    def test_stray_tmp_debris_is_inert(self, tmp_path):
        store = make_store(tmp_path)
        digest = put_entry(store)
        debris = store.object_path(digest).with_name("deadbeef.json.tmp999")
        debris.write_text("partial")
        assert store.get(digest) is not None
        assert store.stats()["entries"] == 1


class TestConcurrentCommits:
    def test_threads_committing_one_digest(self, tmp_path):
        import threading

        store = make_store(tmp_path)
        digest = put_entry(store)
        errors = []

        def commit():
            for _ in range(300):
                try:
                    store.put(digest, "sweep", {"tag": "a"}, {"rows": ["a"]})
                except OSError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=commit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert store.get(digest) == {"rows": ["a"]}
        assert store_counters()["puts"] == 601
        assert not list(store.object_path(digest).parent.glob("*.tmp*"))


class TestEviction:
    def test_oldest_entries_evicted_over_limit(self, tmp_path):
        store = make_store(tmp_path, max_entries=2)
        first = put_entry(store, "a")
        second = put_entry(store, "b")
        third = put_entry(store, "c")
        assert store.live_digests() == [second, third]
        assert store.get(first) is None
        assert store_counters()["evictions"] == 1

    def test_reput_after_eviction(self, tmp_path):
        store = make_store(tmp_path, max_entries=1)
        first = put_entry(store, "a")
        put_entry(store, "b")
        assert store.get(first) is None
        store.put(first, "sweep", {"tag": "a"}, {"rows": ["a"]})
        assert store.get(first) == {"rows": ["a"]}


class TestDefaultStore:
    def test_none_without_configuration(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert default_store() is None

    def test_env_var_names_the_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "envstore"))
        store = default_store()
        assert store is not None
        assert store.root == tmp_path / "envstore"

    def test_explicit_root_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "envstore"))
        store = default_store(tmp_path / "explicit")
        assert store.root == tmp_path / "explicit"

    def test_counter_contract(self):
        counters = store_counters()
        assert set(counters) == {"hits", "misses", "puts", "evictions", "corrupt"}
        assert all(isinstance(v, int) for v in counters.values())
