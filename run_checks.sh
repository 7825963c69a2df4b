#!/usr/bin/env bash
# One-command verification: tier-1 test suite + sim-engine perf smoke.
#
# Mirrors the one-command reproducibility style of the related
# artifacts (run_all_evals.sh et al.): a fresh checkout should pass
# this script and leave the regenerated numbers in benchmarks/output/.
#
#   ./run_checks.sh          # tests + small-budget perf smoke
#   FULL_BENCH=1 ./run_checks.sh   # also the full 100k-trial speedup gate
set -euo pipefail
cd "$(dirname "$0")"

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
else
    echo "ruff not installed — skipping (CI runs it in the lint job)"
fi

echo
echo "== tier-1 tests =="
python -m pytest -x -q --durations=10 tests

echo
echo "== sim-engine perf smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: both sides at 100k trials, >= 20x
    python -m pytest -q benchmarks/bench_sim_engine.py
else
    # small trial budget: checks the plumbing and records throughput,
    # with a loose speedup floor so container noise cannot flake it
    SIM_BENCH_TRIALS=20000 SIM_BENCH_LOOP_TRIALS=2000 \
    SIM_BENCH_MIN_SPEEDUP=5 \
    python -m pytest -q benchmarks/bench_sim_engine.py
fi

echo
echo "== sweep-pipeline perf smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: 180-point grid, caching+parallelism >= 3x
    python -m pytest -q benchmarks/bench_sweep_pipeline.py
else
    # same grid, looser floor so container noise cannot flake it
    SWEEP_BENCH_MIN_SPEEDUP=2 \
    python -m pytest -q benchmarks/bench_sweep_pipeline.py
fi

echo
echo "== workload perf smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: 1M-access zipfian trace, 32 instances, >= 10x
    python -m pytest -q benchmarks/bench_workload.py
else
    # smaller trace/fleet with a loose floor so container noise cannot
    # flake it; correctness gates (loop equivalence, chunk invariance)
    # run at full strictness either way
    WORKLOAD_BENCH_ACCESSES=200000 WORKLOAD_BENCH_INSTANCES=8 \
    WORKLOAD_BENCH_LOOP_ACCESSES=10000 WORKLOAD_BENCH_MIN_SPEEDUP=5 \
    python -m pytest -q benchmarks/bench_workload.py
fi

echo
echo "== margin-engine perf smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: 3-family margin-yield sweep, >= 10x vs the
    # frozen scalar pairwise loop
    python -m pytest -q benchmarks/bench_margins.py
else
    # smaller trial budgets with a loose floor so container noise
    # cannot flake it; correctness gates (byte-identical reports,
    # chunk invariance) run at full strictness either way
    MARGINS_BENCH_TRIALS=5000 MARGINS_BENCH_LOOP_TRIALS=300 \
    MARGINS_BENCH_MIN_SPEEDUP=5 \
    python -m pytest -q benchmarks/bench_margins.py
fi

echo
echo "== readout-engine perf smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: 64x64 all-scheme margin sweep, >= 10x vs the
    # scalar per-cell stamping loop, margins byte-identical
    python -m pytest -q benchmarks/bench_readout.py
else
    # fewer timing segments with a loose floor so container noise
    # cannot flake it; the byte-identical margin gate runs at full
    # strictness either way
    READOUT_BENCH_REPEATS=2 READOUT_BENCH_BATCHED_REPS=3 \
    READOUT_BENCH_MIN_SPEEDUP=5 \
    python -m pytest -q benchmarks/bench_readout.py
fi

echo
echo "== workload-readout perf smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: hot-set zipfian trace read electrically on a
    # 64x64 platform, >= 10x vs the per-access scalar sensing loop
    python -m pytest -q benchmarks/bench_workload_readout.py
else
    # smaller trace/fleet with a loose floor so container noise cannot
    # flake it; correctness gates (electrical loop equivalence, bank
    # cache effectiveness) run at full strictness either way
    READOUT_WL_BENCH_ACCESSES=10000 READOUT_WL_BENCH_INSTANCES=4 \
    READOUT_WL_BENCH_LOOP_ACCESSES=1000 READOUT_WL_BENCH_MIN_SPEEDUP=5 \
    python -m pytest -q benchmarks/bench_workload_readout.py
fi

echo
echo "== telemetry overhead smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: instrumented engine with telemetry disabled
    # within 2% of the bare pre-instrumentation loop; results with
    # telemetry on/off exactly equal
    python -m pytest -q benchmarks/bench_obs.py
else
    # smaller trial budget and a loose ceiling so container noise
    # cannot flake it; the on/off exact-equality gate runs at full
    # strictness either way
    OBS_BENCH_TRIALS=50000 OBS_BENCH_REPEATS=3 \
    OBS_BENCH_MAX_OVERHEAD=0.10 \
    python -m pytest -q benchmarks/bench_obs.py
fi

echo
echo "== shard perf smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: million-trial margin-yield MC over 4 shards,
    # fleet critical path (plan + slowest shard + merge) >= 3x the
    # single pool; merged result byte-identical, resume re-runs only
    # the lost shard
    python -m pytest -q benchmarks/bench_shard.py
else
    # smaller trial budget with a loose floor so container noise
    # cannot flake it; correctness gates (exact merge equality,
    # checkpoint resume) run at full strictness either way
    SHARD_BENCH_TRIALS=100000 SHARD_BENCH_MIN_SPEEDUP=2 \
    python -m pytest -q benchmarks/bench_shard.py
fi

echo
echo "== result-store perf smoke =="
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
    # acceptance protocol: warm store hit >= 10x faster than cold
    # evaluation of the default grid; hits byte-identical, corrupted
    # entries recompute
    python -m pytest -q benchmarks/bench_store.py
else
    # same grid with a loose floor so container noise cannot flake
    # it; correctness gates (exact hit equality, corruption recovery)
    # run at full strictness either way
    STORE_BENCH_MIN_SPEEDUP=5 \
    python -m pytest -q benchmarks/bench_store.py
fi

echo
echo "ok — reports in benchmarks/output/"
