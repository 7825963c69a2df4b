"""WORKLOAD-READOUT — electrical fleet executor vs per-access scalar loop.

Replays a hot-set-dominated zipfian trace over a fleet of sampled
defective crossbars with *electrical* reads: every read resolves
through the batched sneak-path sensing solver
(:mod:`repro.workload.electrical`) instead of an ideal stored-bit
lookup, and is compared against the scalar reference that touches one
``CrossbarArray`` access at a time (the loop oracle
``tests/oracles/workload.run_fleet_loop``, five fresh bank stampings
and dense solves per read — the pre-subsystem way of sensing a bit).

The batched engine's advantage is the state-keyed factorization bank
cache: margins are memoized per (bank state, cell), so only the first
read of a cell after its bank's state actually changed pays dense
solves (two, instead of the loop's five) — every re-read is a dict
hit.  The trace is therefore the regime the subsystem is built for:
zipfian with a hot head (``skew = 2``, cache-line-style traffic) and a
10% write mix, where re-reads dominate and the bank cache converts
them into O(1) lookups.

Protocol
--------
Both sides execute the same trace semantics (the loop on an env-tunable
slice, since it pays per-access bank construction and per-cell solves),
timed in interleaved segments so machine noise hits both sides; rates
are total-accesses / total-time.  Before timing, the two paths are
proven byte-identical on a subset (per-instance metrics including the
misread counters, read values, final stored state, per-read margins)
and the bank cache is proven to actually hit on a quiescent trace —
throughput of a wrong answer counts for nothing.

Environment knobs for smoke runs (see ``run_checks.sh``):

* ``READOUT_WL_BENCH_ACCESSES``       — trace length        (default 40000)
* ``READOUT_WL_BENCH_INSTANCES``      — fleet size          (default 8)
* ``READOUT_WL_BENCH_LOOP_ACCESSES``  — loop-slice length   (default 3000)
* ``READOUT_WL_BENCH_LOOP_INSTANCES`` — loop-slice fleet    (default 2)
* ``READOUT_WL_BENCH_MIN_SPEEDUP``    — asserted floor      (default 10.0)
"""

import os
import time
from dataclasses import replace

import numpy as np

from repro.analysis.report import render_table
from repro.codes import make_code
from repro.crossbar.spec import CrossbarSpec
from repro.workload import ElectricalReadout, MemoryFleet, analytic_address_space
from repro.workload.memory_batch import FleetResult
from repro.workload.traces import zipfian_trace
from tests.oracles.workload import run_fleet_loop

ACCESSES = int(os.environ.get("READOUT_WL_BENCH_ACCESSES", 40_000))
INSTANCES = int(os.environ.get("READOUT_WL_BENCH_INSTANCES", 8))
LOOP_ACCESSES = int(os.environ.get("READOUT_WL_BENCH_LOOP_ACCESSES", 3_000))
LOOP_INSTANCES = int(os.environ.get("READOUT_WL_BENCH_LOOP_INSTANCES", 2))
MIN_SPEEDUP = float(os.environ.get("READOUT_WL_BENCH_MIN_SPEEDUP", 10.0))
REPEATS = 3

#: The asserted design point: a 64x64 platform read electrically with
#: the paper's dual-reference sensing at a lossy comparator resolution,
#: under hot-set zipfian traffic.
RAW_KILOBYTES = 0.5
FAMILY, LENGTH = "TC", 6
WRITE_FRACTION = 0.1
SKEW = 2.0
RESOLUTION = 0.55
MAX_BANKS = 1024


def _slice_trace(trace, accesses):
    """The first ``accesses`` accesses of ``trace`` (same address space)."""
    return replace(
        trace,
        addresses=trace.addresses[:accesses],
        is_write=trace.is_write[:accesses],
        values=trace.values[:accesses],
    )


def _equal_runs(a: FleetResult, b: FleetResult) -> bool:
    """Byte-identity over everything but the engine-dependent cache stats."""
    return (
        set(a.per_instance) == set(b.per_instance)
        and all(
            np.array_equal(a.per_instance[k], b.per_instance[k])
            for k in a.per_instance
        )
        and np.array_equal(a.read_bits, b.read_bits)
        and np.array_equal(a.final_state, b.final_state)
        and np.array_equal(a.margins, b.margins, equal_nan=True)
        and np.array_equal(a.margin_hist, b.margin_hist)
        and np.array_equal(a.margin_edges, b.margin_edges)
    )


def _interleaved_rates(fleet, loop_fleet, trace, loop_trace, space, readout):
    """Total-accesses / total-time for both sides, interleaved segments."""
    loop_work = loop_trace.accesses * loop_fleet.instances
    batched_work = trace.accesses * fleet.instances
    loop_time = batched_time = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_fleet_loop(loop_fleet, loop_trace, space=space, readout=readout)
        loop_time += time.perf_counter() - start
        start = time.perf_counter()
        fleet.run(trace, readout=readout)
        batched_time += time.perf_counter() - start
    return (
        REPEATS * loop_work / loop_time,
        REPEATS * batched_work / batched_time,
    )


def test_workload_readout_speedup(benchmark, emit, emit_json):
    spec = CrossbarSpec(raw_kilobytes=RAW_KILOBYTES)
    space = make_code(FAMILY, 2, LENGTH)
    readout = ElectricalReadout(resolution=RESOLUTION, max_banks=MAX_BANKS)
    address_space = analytic_address_space(spec, space)
    fleet = MemoryFleet.sample(spec, space, INSTANCES, seed=0)
    trace = zipfian_trace(
        ACCESSES,
        address_space,
        write_fraction=WRITE_FRACTION,
        seed=0,
        skew=SKEW,
    )
    loop_fleet = MemoryFleet(fleet._maps[:LOOP_INSTANCES], spec=spec)
    loop_trace = _slice_trace(trace, min(LOOP_ACCESSES, ACCESSES))

    # -- correctness gates before any timing ---------------------------------
    equiv_trace = _slice_trace(trace, min(2_000, ACCESSES))
    collect = dict(collect_reads=True, collect_state=True, collect_margins=True)
    batched_small = loop_fleet.run(
        equiv_trace, chunk_size=512, readout=readout, **collect
    )
    loop_small = run_fleet_loop(
        loop_fleet, equiv_trace, space=space, readout=readout, **collect
    )
    loop_equivalent = _equal_runs(batched_small, loop_small)
    assert loop_equivalent, "batched electrical result differs from the loop"

    quiet_trace = zipfian_trace(
        min(2_000, ACCESSES), address_space, write_fraction=0.0, seed=0, skew=SKEW
    )
    quiet = loop_fleet.run(quiet_trace, readout=readout)
    cache_effective = quiet.cache["hits"] > 0
    assert cache_effective, "bank cache never hit on a quiescent trace"

    # -- warm-up then interleaved timing --------------------------------------
    fleet.run(_slice_trace(trace, min(5_000, ACCESSES)), readout=readout)
    run_fleet_loop(
        loop_fleet,
        _slice_trace(trace, min(500, ACCESSES)),
        space=space,
        readout=readout,
    )

    def run_rates():
        return _interleaved_rates(fleet, loop_fleet, trace, loop_trace, space, readout)

    loop_rate, batched_rate = benchmark.pedantic(run_rates, rounds=1, iterations=1)
    speedup = batched_rate / loop_rate

    result = fleet.run(trace, readout=readout)
    rows = [
        ["workload", f"zipfian {ACCESSES:,} accesses x {INSTANCES} instances"],
        ["platform", f"{spec.side_nanowires}x{spec.side_nanowires}, {FAMILY}-{LENGTH}"],
        ["readout", f"{readout.model.scheme}, resolution {RESOLUTION}"],
        ["loop accesses/s", f"{loop_rate / 1e3:,.1f}k"],
        ["batched accesses/s", f"{batched_rate / 1e3:,.0f}k"],
        ["speedup", f"{speedup:.1f}x"],
        ["mean misread rate", f"{100 * result['misread_rate'].mean:.3f}%"],
        ["mean margin", f"{result['margin_mean'].mean:.4f}"],
        ["bank-cache hit rate", f"{100 * result.cache['hit_rate']:.1f}%"],
    ]
    emit(
        "workload_readout_speedup",
        "Electrical trace executor vs per-access scalar loop\n"
        + render_table(["figure", "value"], rows),
    )
    emit_json(
        "workload_readout",
        {
            "trace": "zipfian",
            "accesses": ACCESSES,
            "instances": INSTANCES,
            "address_space": address_space,
            "side_nanowires": spec.side_nanowires,
            "scheme": readout.model.scheme,
            "resolution": RESOLUTION,
            "write_fraction": WRITE_FRACTION,
            "skew": SKEW,
            "max_banks": MAX_BANKS,
            "loop_accesses": loop_trace.accesses,
            "loop_instances": LOOP_INSTANCES,
            "loop_accesses_per_s": loop_rate,
            "batched_accesses_per_s": batched_rate,
            "speedup_vs_loop": speedup,
            "min_speedup": MIN_SPEEDUP,
            "loop_equivalent": bool(loop_equivalent),
            "cache_effective": bool(cache_effective),
            "mean_misread_rate": result["misread_rate"].mean,
            "mean_margin": result["margin_mean"].mean,
            "mean_margin_min": result["margin_min"].mean,
            "bank_cache": result.cache,
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batched electrical executor only {speedup:.1f}x faster than the "
        f"per-access loop (floor {MIN_SPEEDUP}x)"
    )
