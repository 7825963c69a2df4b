"""Tests of the benchmark's measurement helpers, on synthetic data.

Run with ``python -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from benchlib import (
    Tracer,
    layer_self_times,
    layer_shares,
    quiet_op_seconds,
    self_times,
    tail_percentile,
    thirdparty_import_ms,
    write_jsonl,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(id_, start, end, parent=None, name="x.y"):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end}


class TestTailPercentile:
    def test_too_few_samples(self):
        assert tail_percentile(range(10)) is None

    def test_exactly_ten_beyond(self):
        pct, value, n = tail_percentile(reversed(range(1, 101)))
        assert (pct, value, n) == (90.0, 90, 100)
        assert sum(1 for x in range(1, 101) if x > value) == 10

    def test_eleven_samples_is_the_minimum(self):
        pct, value, n = tail_percentile([5.0] + [1.0] * 10)
        assert n == 11 and value == 1.0
        assert pct == pytest.approx(100 / 11)

    def test_custom_beyond(self):
        assert tail_percentile(range(100), beyond=1) == (99.0, 98, 100)


class TestQuietOpSeconds:
    def test_fastest_quarter_of_each_kind_weighted_by_count(self):
        slow_phase = [10.0] * 6  # a slow phase only adds time
        mix = {
            "a": [1.0, 1.2, 3.0, 4.0] + slow_phase,  # fastest ceil(2.5) = 3
            "b": [0.1, 0.3],  # fastest 1
        }
        expected = 10 / 12 * (1.0 + 1.2 + 3.0) / 3 + 2 / 12 * 0.1
        assert quiet_op_seconds(mix) == pytest.approx(expected)

    def test_unmoved_by_slow_samples_moved_by_a_slower_program(self):
        quiet = {"a": [1.0] * 8, "b": [2.0] * 8}
        noisy = {k: v[:2] + [x * 3 for x in v[2:]] for k, v in quiet.items()}
        slower = {k: [x * 1.1 for x in v] for k, v in quiet.items()}
        assert quiet_op_seconds(noisy) == pytest.approx(quiet_op_seconds(quiet))
        assert quiet_op_seconds(slower) == pytest.approx(1.1 * quiet_op_seconds(quiet))

    def test_no_samples(self):
        with pytest.raises(ValueError):
            quiet_op_seconds({"a": []})


class TestSelfTimes:
    def test_children_overlap_and_clip(self):
        spans = [
            span(1, 0.0, 10.0),
            span(2, 1.0, 3.0, parent=1),
            span(3, 2.0, 5.0, parent=1),  # overlaps span 2
            span(4, 8.0, 12.0, parent=1),  # runs past its parent
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
        assert own[2] == pytest.approx(2.0)
        assert own[4] == pytest.approx(4.0)

    def test_layer_self_times(self):
        spans = [
            span(1, 0.0, 10.0, name="op.a"),
            span(2, 1.0, 6.0, parent=1, name="serve.roundtrip"),
            span(3, 2.0, 4.0, parent=2, name="store.get"),
            span(4, 20.0, 23.0, name="op.b"),
            span(5, 20.5, 22.0, parent=4, name="store.get"),
        ]
        layers = layer_self_times(spans)
        assert layers == pytest.approx({"bench": 6.5, "serve": 3.0, "store": 3.5})

    def test_shares_cover_the_spanned_part_of_the_op_wall(self):
        # op walls measured outside the spans: 12 s and 3 s; op a's root
        # span covers only 10 of its 12 s
        spans = [
            span(1, 1.0, 11.0, name="op.a"),
            span(2, 2.0, 7.0, parent=1, name="sim.run"),
            span(3, 20.0, 23.0, name="op.b"),
        ]
        shares = layer_shares(spans, wall=12.0 + 3.0)
        assert shares == pytest.approx({"bench": 8.0 / 15, "sim": 5.0 / 15})
        assert sum(shares.values()) == pytest.approx(13.0 / 15)
        assert layer_shares(spans, wall=13.0)["bench"] == pytest.approx(8.0 / 13)


class TestTracer:
    def test_parent_and_trace_inherited(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("op.x", trace="t1") as root:
            clock.now = 1.0
            with tracer.span("sim.run") as child:
                clock.now = 3.0
            clock.now = 4.0
        with tracer.span("op.y", trace="t2"):
            pass
        assert child["parent"] == root["id"] and child["trace"] == "t1"
        assert root["parent"] is None
        assert (child["start"], child["end"]) == (1.0, 3.0)
        assert self_times(tracer.spans)[root["id"]] == pytest.approx(2.0)
        assert [s["trace"] for s in tracer.spans] == ["t1", "t1", "t2"]

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(tag):
            with tracer.span("op.t", trace=tag):
                barrier.wait(timeout=10)
                with tracer.span("serve.call"):
                    barrier.wait(timeout=10)

        threads = [threading.Thread(target=work, args=(t,)) for t in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        by_id = {s["id"]: s for s in tracer.spans}
        for s in tracer.spans:
            if s["name"] == "serve.call":
                assert by_id[s["parent"]]["trace"] == s["trace"]

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("op.fail"):
                raise ValueError("boom")
        assert len(tracer.spans) == 1 and "end" in tracer.spans[0]

    def test_write_jsonl(self, tmp_path):
        records = [span(1, 0.0, 1.0), span(2, 0.2, 0.4, parent=1)]
        path = write_jsonl(tmp_path / "out" / "spans.jsonl", {"seed": 3}, records)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"header": {"seed": 3}}
        assert lines[1:] == records


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:       200 |        200 |       numpy._core.multiarray
import time:      1000 |       1200 |     numpy
import time:       300 |        300 |       scipy._lib
import time:        50 |        350 |     scipy
import time:       400 |       1950 |   repro.device.physics
import time:       700 |        700 |   numpy.linalg
import time:        10 |       2660 | repro
"""


def test_thirdparty_import_ms_counts_outermost_entries_once():
    # numpy (1200) + scipy (350) under repro.device.physics, plus the
    # top-level numpy.linalg entry (700); nested numpy/scipy not re-added
    assert thirdparty_import_ms(IMPORTTIME) == pytest.approx(2.25)
    assert thirdparty_import_ms(IMPORTTIME, roots=("scipy",)) == pytest.approx(0.35)
    assert thirdparty_import_ms("no importtime lines") == 0.0


def test_benchmark_json_matches_the_reported_metrics():
    import run
    from workloads import BENCHMARKED, WORKLOADS

    doc = json.loads(BENCHMARK.read_text())
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(BENCHMARKED)
    assert set(BENCHMARKED) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
