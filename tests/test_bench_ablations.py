"""Unit tests for the ablation bench's table rows (benchmarks/bench_ablations.py)."""

from benchmarks.bench_ablations import _rows


def test_rows_ratio():
    rows = _rows([{"margin": 0.5, "bgc10_yield": 0.6, "tc6_yield": 0.3}], "margin")
    assert rows == [[0.5, "60.0%", "30.0%", "2.00x"]]


def test_rows_zero_tc_yield_prints_na():
    records = [{"gap": 2.0, "bgc10_yield": 0.42, "tc6_yield": 0.0}]
    assert _rows(records, "gap") == [[2.0, "42.0%", "0.0%", "n/a"]]
