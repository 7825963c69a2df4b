"""READ — batched sneak-path readout engine vs the scalar stamping loop.

Two jobs in one bench:

1. regenerate the sense-margin-vs-bank-size view of the memory
   substrate (not a paper figure: the paper assumes the crossbar
   "functions as a memory", and this table quantifies the electrical
   constraint behind that assumption — floating-scheme margins collapse
   with bank size, the reason arrays are segmented into cave-sized
   banks rather than read as one monolithic 16 kB plane);
2. gate the readout engine: the batched all-scheme worst-case margin
   sweep of a 64 x 64 bank must run >= 10x faster than the scalar
   reference (the ``LoopReadoutModel`` oracle of
   ``tests/oracles/readout.py``: per-cell Python stamping, one dense
   solve per read) while producing *byte-identical* margins.

The two sides are timed in interleaved segments and aggregated by
total time, for the same noisy-shared-runner reasons as
``bench_sim_engine.py``.  Machine-readable gate numbers land in
``benchmarks/output/BENCH_readout.json``.

Environment knobs for smoke runs (see ``run_checks.sh``):

* ``READOUT_BENCH_REPEATS``     — interleaved timing segments (default 3)
* ``READOUT_BENCH_BATCHED_REPS``— batched sweeps per segment (default 5)
* ``READOUT_BENCH_MIN_SPEEDUP`` — asserted floor (default 10.0)
"""

import os
import time

from repro.analysis.report import render_table
from repro.crossbar.readout import SCHEMES
from repro.sim.readout import scheme_margin_sweep
from tests.oracles.readout import LoopReadoutModel

REPEATS = max(1, int(os.environ.get("READOUT_BENCH_REPEATS", 3)))
BATCHED_REPS = max(1, int(os.environ.get("READOUT_BENCH_BATCHED_REPS", 5)))
MIN_SPEEDUP = float(os.environ.get("READOUT_BENCH_MIN_SPEEDUP", 10.0))

SIZES = (4, 8, 16, 20, 32, 64)
GATE_SIZE = 64


def run_margins():
    sweep = scheme_margin_sweep(SIZES)
    return {scheme: list(zip(SIZES, sweep[scheme])) for scheme in SCHEMES}


def test_readout_margins(benchmark, emit):
    results = benchmark(run_margins)

    rows = []
    for k, size in enumerate(SIZES):
        row = [size]
        for scheme in ("float", "half_v", "ground"):
            margin = results[scheme][k][1]
            row.append(f"{100 * margin:.1f}%")
        rows.append(row)
    emit(
        "readout_margins",
        "Worst-case sense margin vs square bank size\n"
        + render_table(["bank", "float", "half_v", "ground"], rows),
    )

    floating = [m for _, m in results["float"]]
    grounded = [m for _, m in results["ground"]]
    # floating margins collapse with size; grounded margins do not
    assert all(b < a for a, b in zip(floating, floating[1:]))
    assert max(grounded) - min(grounded) < 0.01
    # a half-cave-sized bank keeps several times the margin of a 64-bank
    assert dict(results["float"])[20] > 3 * dict(results["float"])[64]


# -- the engine gate -----------------------------------------------------------


def _loop_sweep(size):
    """All-scheme worst-case margins with the scalar reference path."""
    return {
        scheme: LoopReadoutModel(scheme=scheme).sense_margin(size, size)
        for scheme in SCHEMES
    }


def _interleaved_timing():
    loop_time = 0.0
    loop_sweeps = 0
    batched_time = 0.0
    batched_sweeps = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop_sweep(GATE_SIZE)
        loop_time += time.perf_counter() - start
        loop_sweeps += 1
        start = time.perf_counter()
        for _ in range(BATCHED_REPS):
            scheme_margin_sweep((GATE_SIZE,))
        batched_time += time.perf_counter() - start
        batched_sweeps += BATCHED_REPS
    return loop_sweeps / loop_time, batched_sweeps / batched_time


def test_readout_engine_speedup(emit, emit_json):
    # warm-up both paths (imports, BLAS threads) before any timing
    _loop_sweep(8)
    scheme_margin_sweep((8,))

    loop_rate, batched_rate = _interleaved_timing()
    speedup = batched_rate / loop_rate

    # -- correctness gates (full strictness at any budget) --------------------

    # byte-identical margins: batched sweep vs the scalar loop path
    check_sizes = (8, 20, GATE_SIZE)
    batched = scheme_margin_sweep(check_sizes)
    for scheme in SCHEMES:
        loop_model = LoopReadoutModel(scheme=scheme)
        for k, size in enumerate(check_sizes):
            assert batched[scheme][k] == loop_model.sense_margin(size, size), (
                scheme,
                size,
            )

    emit(
        "readout_engine_speedup",
        f"Batched readout engine vs scalar stamping loop "
        f"({GATE_SIZE} x {GATE_SIZE} all-scheme margin sweep)\n"
        + render_table(
            ["side", "sweeps/s"],
            [
                ["scalar loop", f"{loop_rate:,.1f}"],
                ["batched engine", f"{batched_rate:,.1f}"],
                ["speedup", f"{speedup:.1f}x"],
            ],
        ),
    )
    emit_json(
        "readout",
        {
            "gate_size": GATE_SIZE,
            "schemes": list(SCHEMES),
            "repeats": REPEATS,
            "batched_reps": BATCHED_REPS,
            "min_speedup": MIN_SPEEDUP,
            "loop_sweeps_per_s": loop_rate,
            "batched_sweeps_per_s": batched_rate,
            "speedup_vs_scalar_loop": speedup,
            "margins_float": dict(
                zip((str(s) for s in check_sizes), batched["float"])
            ),
        },
    )

    # -- the perf gate ---------------------------------------------------------
    assert speedup >= MIN_SPEEDUP, (
        f"batched readout engine only {speedup:.1f}x faster than the scalar "
        f"stamping loop (floor {MIN_SPEEDUP}x)"
    )
