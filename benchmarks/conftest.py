"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one paper artefact (figure or headline claim),
times the underlying computation with pytest-benchmark, and writes the
regenerated rows/series both to stdout and to ``benchmarks/output/`` so
they can be quoted verbatim.  Machine-readable numbers
(throughputs, speedups) additionally go to ``BENCH_<name>.json`` files
via the ``emit_json`` fixture, so scripts like ``run_checks.sh`` can
diff them across commits.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.crossbar.spec import CrossbarSpec

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


@pytest.fixture(scope="session")
def spec() -> CrossbarSpec:
    """The paper's 16 kB platform with calibrated defaults."""
    return CrossbarSpec()


@pytest.fixture(scope="session")
def emit():
    """Write a named report to benchmarks/output/ and echo it."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}")

    return _emit


@pytest.fixture(scope="session")
def emit_json():
    """Write a machine-readable report to benchmarks/output/BENCH_<name>.json."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit_json(name: str, payload: dict) -> Path:
        path = OUTPUT_DIR / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        dump = json.dumps(payload, indent=2, sort_keys=True)
        print(f"\n=== BENCH_{name}.json ===\n{dump}")
        return path

    return _emit_json
