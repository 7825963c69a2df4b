"""SIM — batched engine vs legacy per-trial loop throughput (perf smoke).

Compares the chunked batched Monte-Carlo engine (:mod:`repro.sim`)
against the *seed-commit* per-trial simulator on the Sec. 6.1 cave
yield, at the acceptance budget of 100k trials, and records trials/sec
plus the speedup into ``BENCH_sim_engine.json``.

The baseline is a verbatim frozen copy of the seed implementation
(per-trial ``classify``-based masks, per-call nominal-VT lookups) so
the speedup is measured against a fixed reference and does not shrink
as the library's own scalar path improves.  The golden-fixture loop
oracle (``tests/oracles/montecarlo.simulate_cave_yield_loop``, which
hoists the kernel precomputation) is reported alongside for context.

The asserted speedup compares both implementations at the *same* full
trial budget (the acceptance protocol: 100k trials each), with the
two sides timed in interleaved segments and aggregated by total time.
Interleaving matters on shared machines: the loop is dispatch-bound
and speeds up under CPU bursts while the batched engine is RNG-
throughput-bound and does not, so timing the sides minutes apart can
swing the ratio by 1.5x in either direction.  Secondary design points
are reported from short loop runs for context only.

Environment knobs for smoke runs (see ``run_checks.sh``):

* ``SIM_BENCH_TRIALS``       — per-side trial budget (default 100000)
* ``SIM_BENCH_LOOP_TRIALS``  — loop budget for the context-only
  secondary points (default 4000)
* ``SIM_BENCH_MIN_SPEEDUP``  — asserted floor        (default 20.0)
"""

import os
import time

import numpy as np
import pytest

from repro.analysis.report import render_table
from repro.codes import make_code
from repro.crossbar.montecarlo import simulate_cave_yield
from repro.crossbar.yield_model import crossbar_yield, decoder_for
from repro.decoder.addressing import sampled_addressable_mask
from repro.device.variability import sample_region_vt
from tests.oracles.montecarlo import simulate_cave_yield_loop

TRIALS = int(os.environ.get("SIM_BENCH_TRIALS", 100_000))
LOOP_TRIALS = int(os.environ.get("SIM_BENCH_LOOP_TRIALS", 4_000))
MIN_SPEEDUP = float(os.environ.get("SIM_BENCH_MIN_SPEEDUP", 20.0))
REPEATS = 3

#: The asserted design point (paper Fig. 7 panel 1, M = 6) plus
#: context-only secondary points.
HEADLINE = ("TC", 6)
SECONDARY = [("BGC", 8), ("AHC", 6)]


# -- frozen seed-commit implementation (do not "optimise" this) ---------------


def _seed_sample_electrical_mask(decoder, rng):
    nominal = decoder.plan.nominal_vt()
    vt = sample_region_vt(nominal, decoder.nu, rng, decoder.sigma_t)
    return sampled_addressable_mask(vt, decoder.patterns, decoder.scheme)


def _seed_sample_geometric_mask(decoder, rng):
    rules = decoder.rules
    pitch = rules.nanowire_pitch_nm
    n = decoder.nanowires
    mask = np.ones(n, dtype=bool)
    centres = (np.arange(n) + 0.5) * pitch
    halfzone = rules.contact_gap_nm / 2.0 + rules.alignment_tolerance_nm
    boundary = 0
    for size in decoder.group_plan.group_sizes[:-1]:
        boundary += size
        offset = rng.uniform(
            -rules.alignment_tolerance_nm, rules.alignment_tolerance_nm
        )
        position = boundary * pitch + offset
        mask &= np.abs(centres - position) > halfzone
    return mask


def _seed_simulate_cave_yield(spec, space, samples, seed=0):
    decoder = decoder_for(spec, space)
    rng = np.random.default_rng(seed)
    cave = np.empty(samples)
    for s in range(samples):
        e_mask = _seed_sample_electrical_mask(decoder, rng)
        g_mask = _seed_sample_geometric_mask(decoder, rng)
        cave[s] = (e_mask & g_mask).mean()
    return float(cave.mean())


def _best_rate(fn, trials, repeats=REPEATS):
    """Trials/sec from the fastest of ``repeats`` timed runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return trials / best


def _interleaved_rates(spec, code):
    """Headline protocol: both sides at TRIALS trials, interleaved.

    The loop budget is split into REPEATS segments and each segment is
    timed back-to-back with a full batched run, so both sides sample
    the same machine state; rates are total-trials / total-time.
    """
    loop_seg = -(-TRIALS // REPEATS)
    loop_time = 0.0
    loop_done = 0
    batched_time = 0.0
    batched_done = 0
    for _ in range(REPEATS):
        seg = min(loop_seg, TRIALS - loop_done)
        start = time.perf_counter()
        _seed_simulate_cave_yield(spec, code, seg)
        loop_time += time.perf_counter() - start
        loop_done += seg
        start = time.perf_counter()
        simulate_cave_yield(spec, code, samples=TRIALS, seed=0)
        batched_time += time.perf_counter() - start
        batched_done += TRIALS
    return loop_done / loop_time, batched_done / batched_time


def _measure_point(spec, family, length, loop_trials, interleaved=False):
    """One comparison row: seed loop, hoisted loop, batched engine."""
    code = make_code(family, 2, length)
    # warm-up both paths (imports, allocator, caches)
    simulate_cave_yield(spec, code, samples=1000, seed=0)
    _seed_simulate_cave_yield(spec, code, min(200, loop_trials), seed=0)

    if interleaved:
        loop_rate, batched_rate = _interleaved_rates(spec, code)
    else:
        loop_rate = _best_rate(
            lambda: _seed_simulate_cave_yield(spec, code, loop_trials),
            loop_trials,
        )
        batched_rate = _best_rate(
            lambda: simulate_cave_yield(
                spec, code, samples=TRIALS, seed=0
            ),
            TRIALS,
        )
    wrapper_rate = _best_rate(
        lambda: simulate_cave_yield_loop(
            spec, code, samples=min(loop_trials, 4_000), seed=0
        ),
        min(loop_trials, 4_000),
    )
    mc = simulate_cave_yield(spec, code, samples=TRIALS, seed=0)
    return {
        "loop_trials": loop_trials,
        "loop_trials_per_s": loop_rate,
        "wrapper_loop_trials_per_s": wrapper_rate,
        "batched_trials_per_s": batched_rate,
        "speedup_vs_seed_loop": batched_rate / loop_rate,
        "mc_cave_yield": mc.mean_cave_yield,
        "mc_stderr": mc.stderr,
        "analytic_cave_yield": crossbar_yield(spec, code).cave_yield,
    }


def test_sim_engine_speedup(benchmark, emit, emit_json, spec):
    def run_all():
        out = {
            HEADLINE: _measure_point(
                spec, *HEADLINE, loop_trials=TRIALS, interleaved=True
            )
        }
        for family, length in SECONDARY:
            out[(family, length)] = _measure_point(
                spec, family, length, loop_trials=LOOP_TRIALS
            )
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [
            f"{family}/{length}",
            f"{r['loop_trials_per_s'] / 1e3:.1f}k",
            f"{r['wrapper_loop_trials_per_s'] / 1e3:.1f}k",
            f"{r['batched_trials_per_s'] / 1e3:.0f}k",
            f"{r['speedup_vs_seed_loop']:.1f}x",
        ]
        for (family, length), r in results.items()
    ]
    emit(
        "sim_engine_speedup",
        f"Batched sim engine vs per-trial loops ({TRIALS} batched trials)\n"
        + render_table(
            ["design", "seed loop", "loop (hoisted)", "batched", "speedup"],
            rows,
        ),
    )
    emit_json(
        "sim_engine",
        {
            "batched_trials": TRIALS,
            "headline": "/".join(map(str, HEADLINE)),
            "min_speedup": MIN_SPEEDUP,
            "points": {
                f"{family}/{length}": r
                for (family, length), r in results.items()
            },
        },
    )

    headline_speedup = results[HEADLINE]["speedup_vs_seed_loop"]
    assert headline_speedup >= MIN_SPEEDUP, (
        f"batched engine only {headline_speedup:.1f}x faster than the seed "
        f"loop at {TRIALS} trials each (floor {MIN_SPEEDUP}x)"
    )

    # throughput means nothing if the estimates drifted
    for (family, length), r in results.items():
        assert r["mc_cave_yield"] == pytest.approx(
            r["analytic_cave_yield"], abs=max(0.02, 5 * r["mc_stderr"])
        ), f"{family}/{length} disagrees with the analytic model"
