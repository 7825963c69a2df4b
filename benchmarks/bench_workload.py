"""WORKLOAD — batched fleet executor vs per-access scalar loop (perf gate).

Replays the acceptance workload — a 1M-access zipfian trace over a
32-instance fleet of sampled defective crossbars — through the
vectorised workload engine (:mod:`repro.workload.memory_batch`) and
compares per-access throughput against the scalar
``CrossbarMemory``-per-call reference (the loop oracle
``tests/oracles/workload.run_fleet_loop``), which is the pre-subsystem
way of touching the memory.

Protocol
--------
Both sides execute the *same* trace semantics (the loop on an
env-tunable slice of the workload, since it is ~two orders of magnitude
slower), timed in interleaved segments so machine noise hits both
sides; rates are total-accesses / total-time.  Before timing, the two
paths are proven byte-identical on a subset (read values, final stored
state, every per-instance metric) and the batched path is proven
invariant to ``chunk_size`` on the full trace — throughput of a wrong
answer counts for nothing.

Environment knobs for smoke runs (see ``run_checks.sh``):

* ``WORKLOAD_BENCH_ACCESSES``       — trace length        (default 1000000)
* ``WORKLOAD_BENCH_INSTANCES``      — fleet size          (default 32)
* ``WORKLOAD_BENCH_LOOP_ACCESSES``  — loop-slice length   (default 20000)
* ``WORKLOAD_BENCH_LOOP_INSTANCES`` — loop-slice fleet    (default 2)
* ``WORKLOAD_BENCH_MIN_SPEEDUP``    — asserted floor      (default 10.0)
"""

import os
import time
from dataclasses import replace

import numpy as np

from repro.analysis.report import render_table
from repro.codes import make_code
from repro.workload import MemoryFleet, analytic_address_space, zipfian_trace
from repro.workload.memory_batch import FleetResult
from tests.oracles.workload import run_fleet_loop

ACCESSES = int(os.environ.get("WORKLOAD_BENCH_ACCESSES", 1_000_000))
INSTANCES = int(os.environ.get("WORKLOAD_BENCH_INSTANCES", 32))
LOOP_ACCESSES = int(os.environ.get("WORKLOAD_BENCH_LOOP_ACCESSES", 20_000))
LOOP_INSTANCES = int(os.environ.get("WORKLOAD_BENCH_LOOP_INSTANCES", 2))
MIN_SPEEDUP = float(os.environ.get("WORKLOAD_BENCH_MIN_SPEEDUP", 10.0))
REPEATS = 3

#: The asserted design point: the paper's best bit-area code (Fig. 8).
FAMILY, LENGTH = "BGC", 10


def _slice_trace(trace, accesses):
    """The first ``accesses`` accesses of ``trace`` (same address space)."""
    return replace(
        trace,
        addresses=trace.addresses[:accesses],
        is_write=trace.is_write[:accesses],
        values=trace.values[:accesses],
    )


def _equal_runs(a: FleetResult, b: FleetResult) -> bool:
    return (
        all(
            np.array_equal(a.per_instance[k], b.per_instance[k])
            for k in a.per_instance
        )
        and np.array_equal(a.read_bits, b.read_bits)
        and np.array_equal(a.final_state, b.final_state)
    )


def _interleaved_rates(fleet, loop_fleet, trace, loop_trace):
    """Total-accesses / total-time for both sides, interleaved segments."""
    loop_work = loop_trace.accesses * loop_fleet.instances
    batched_work = trace.accesses * fleet.instances
    loop_time = batched_time = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_fleet_loop(loop_fleet, loop_trace)
        loop_time += time.perf_counter() - start
        start = time.perf_counter()
        fleet.run(trace)
        batched_time += time.perf_counter() - start
    return (
        REPEATS * loop_work / loop_time,
        REPEATS * batched_work / batched_time,
    )


def test_workload_speedup(benchmark, emit, emit_json, spec):
    code = make_code(FAMILY, 2, LENGTH)
    address_space = analytic_address_space(spec, code)
    fleet = MemoryFleet.sample(spec, code, INSTANCES, seed=0)
    trace = zipfian_trace(ACCESSES, address_space, seed=0)
    loop_fleet = MemoryFleet(fleet._maps[:LOOP_INSTANCES])
    loop_trace = _slice_trace(trace, min(LOOP_ACCESSES, ACCESSES))

    # -- correctness gates before any timing ---------------------------------
    equiv_trace = _slice_trace(trace, min(20_000, ACCESSES))
    batched_small = loop_fleet.run(
        equiv_trace,
        chunk_size=4096,
        collect_reads=True,
        collect_state=True,
    )
    loop_small = run_fleet_loop(
        loop_fleet, equiv_trace, collect_reads=True, collect_state=True
    )
    loop_equivalent = _equal_runs(batched_small, loop_small)
    assert loop_equivalent, "batched result differs from the scalar loop"

    full_a = fleet.run(trace, chunk_size=65_536, collect_reads=True, collect_state=True)
    full_b = fleet.run(
        trace, chunk_size=262_144, collect_reads=True, collect_state=True
    )
    chunk_invariant = _equal_runs(full_a, full_b)
    assert chunk_invariant, "batched result depends on chunk_size"

    # -- warm-up then interleaved timing --------------------------------------
    fleet.run(_slice_trace(trace, min(50_000, ACCESSES)))
    run_fleet_loop(loop_fleet, _slice_trace(trace, min(2_000, ACCESSES)))

    def run_rates():
        return _interleaved_rates(fleet, loop_fleet, trace, loop_trace)

    loop_rate, batched_rate = benchmark.pedantic(run_rates, rounds=1, iterations=1)
    speedup = batched_rate / loop_rate

    result = full_a
    rows = [
        ["workload", f"zipfian {ACCESSES:,} accesses x {INSTANCES} instances"],
        ["address space", f"{address_space:,} bits"],
        ["loop accesses/s", f"{loop_rate / 1e3:,.0f}k"],
        ["batched accesses/s", f"{batched_rate / 1e6:,.1f}M"],
        ["speedup", f"{speedup:.1f}x"],
        ["mean capacity", f"{result['effective_capacity_bits'].mean:,.0f} bits"],
        ["mean failure rate", f"{100 * result['failure_rate'].mean:.3f}%"],
    ]
    emit(
        "workload_speedup",
        "Trace-driven fleet executor vs per-access scalar loop\n"
        + render_table(["figure", "value"], rows),
    )
    emit_json(
        "workload",
        {
            "trace": "zipfian",
            "accesses": ACCESSES,
            "instances": INSTANCES,
            "address_space": address_space,
            "loop_accesses": loop_trace.accesses,
            "loop_instances": LOOP_INSTANCES,
            "loop_accesses_per_s": loop_rate,
            "batched_accesses_per_s": batched_rate,
            "speedup_vs_loop": speedup,
            "min_speedup": MIN_SPEEDUP,
            "loop_equivalent": bool(loop_equivalent),
            "chunk_invariant": bool(chunk_invariant),
            "mean_effective_capacity_bits": result["effective_capacity_bits"].mean,
            "mean_failure_rate": result["failure_rate"].mean,
            "mean_first_failure_index": result["first_failure_index"].mean,
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batched fleet executor only {speedup:.1f}x faster than the "
        f"per-access loop (floor {MIN_SPEEDUP}x)"
    )
