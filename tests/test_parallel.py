"""Thread-parallel engine paths: re-entrancy, invariance and fork hygiene.

The MC engine evaluates a chunk's spawn-mode stream blocks, and the
memory fleet its instances, through :func:`repro.sim.batch.parallel_map`
on up to :func:`~repro.sim.batch.usable_cpus` threads.  The contract
tested here:

* results (summaries, raw per-trial arrays, fleet metrics) and the
  telemetry counts are byte-identical at every thread count;
* kernels shared across callers (the decoder's cached cave-yield
  kernel) are re-entrant;
* the cache-sized slabs of the margin kernel and of the fleet's
  write-error draws reproduce the one-shot computation exactly;
* no thread outlives a call, multiprocessing children (sweep pool
  workers, shard workers) run serially, and forking after a threaded
  engine call stays safe.
"""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import api, obs
from repro.codes.registry import make_code
from repro.crossbar.ecc import SecdedCode
from repro.crossbar.montecarlo import simulate_margin_yield, yield_kernel
from repro.crossbar.spec import CrossbarSpec
from repro.sim import batch, engine, margins
from repro.sim.engine import MonteCarloEngine
from repro.workload import memory_batch
from tests.oracles.margins import simulate_margin_yield_loop

SPEC = CrossbarSpec()
SRC = Path(__file__).resolve().parents[1] / "src"


def force_width(monkeypatch, width: int) -> None:
    monkeypatch.setattr(batch, "usable_cpus", lambda: width)


class TestParallelMap:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_results_in_input_order(self, monkeypatch, width):
        force_width(monkeypatch, width)
        assert batch.parallel_map(pow, range(9), [2] * 9) == [i * i for i in range(9)]
        assert batch.parallel_map(pow, [], []) == []

    def test_width_one_runs_on_the_calling_thread(self, monkeypatch):
        force_width(monkeypatch, 1)
        caller = threading.get_ident()
        idents = batch.parallel_map(lambda _: threading.get_ident(), range(4))
        assert set(idents) == {caller}

    def test_worker_errors_propagate_and_leave_no_threads(self, monkeypatch):
        force_width(monkeypatch, 2)
        before = threading.active_count()

        def boom(i):
            if i == 3:
                raise RuntimeError("block 3")
            return i

        with pytest.raises(RuntimeError, match="block 3"):
            batch.parallel_map(boom, range(6))
        assert threading.active_count() == before

    def test_main_process_uses_the_affinity_mask(self):
        assert batch.usable_cpus() == len(os.sched_getaffinity(0))


class TestSharedKernelRace:
    def test_concurrent_cavemc_runs_match_serial(self):
        """Two threads running cavemc on one design share the decoder's
        cached kernel; each run must still equal its serial result."""
        seeds = range(8)

        def run(seed):
            return api.simulate(
                api.McRequest("cavemc", "BGC", 8, samples=65536, seed=seed)
            )

        serial = [run(s) for s in seeds]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, seeds))
        mismatches = [s for s in seeds if threaded[s] != serial[s]]
        assert mismatches == []


def _obs_counts(snap: dict) -> dict:
    """The thread-count-invariant part of a telemetry snapshot."""
    counters = snap["counters"]
    workload = {
        k: v
        for k, v in counters.items()
        if k.startswith("workload.") and not k.endswith("_s")
    }
    return {
        "sim.blocks": counters.get("sim.blocks"),
        "sim.block_s": snap["hists"].get("sim.block_s", {}).get("count"),
        "workload": workload,
        "workload_keys": sorted(k for k in counters if k.startswith("workload.")),
    }


class TestThreadCountInvariance:
    WIDTHS = (1, 2, 4)

    def _across_widths(self, monkeypatch, compute):
        outs = []
        for width in self.WIDTHS:
            force_width(monkeypatch, width)
            with obs.scoped() as reg:
                result = compute()
                counts = _obs_counts(reg.snapshot())
            outs.append((result, counts))
        return outs

    @pytest.mark.parametrize("kind", ["marginmc", "cavemc"])
    def test_simulate_and_raw_trials(self, monkeypatch, kind):
        request = api.McRequest(kind, "BGC", 8, samples=20480, seed=5)

        def compute():
            summary = api.simulate(request, chunk_size=8192)
            mc_engine = MonteCarloEngine(api.mc_kernel(request))
            run = mc_engine.run(request.samples, request.seed, collect=True)
            raw = {k: v.tobytes() for k, v in run.raw.items()}
            return repr(summary), run.metrics, raw

        outs = self._across_widths(monkeypatch, compute)
        for result, counts in outs[1:]:
            assert result == outs[0][0]
            assert counts == outs[0][1]
        assert outs[0][1]["sim.blocks"] == 2 * 5
        assert outs[0][1]["sim.block_s"] == 2 * 5

    @pytest.mark.parametrize("parity_bits", [6, 0])
    def test_memsim(self, monkeypatch, parity_bits):
        request = api.WorkloadRequest(
            family="BGC",
            total_length=10,
            accesses=6000,
            instances=5,
            parity_bits=parity_bits,
            # write errors need a reader: ECC here (raw-bit runs refuse them)
            error_rate=2e-3 if parity_bits else 0.0,
            seed=3,
        )
        fleet, trace = memory_batch.prepare_workload(
            SPEC,
            make_code("BGC", 2, 10),
            accesses=3000,
            instances=3,
            seed=4,
            ecc=SecdedCode(6) if parity_bits else None,
        )

        def compute():
            wl = api.memsim(request, chunk_size=2500)
            run = fleet.run(
                trace,
                chunk_size=1000,
                seed=4,
                write_error_rate=5e-3,
                collect_reads=True,
                collect_state=True,
            )
            per_instance = {k: v.tobytes() for k, v in run.per_instance.items()}
            return (
                json.dumps(wl.to_dict(), sort_keys=True),
                run.summary,
                per_instance,
                run.read_bits.tobytes(),
                run.final_state.tobytes(),
            )

        outs = self._across_widths(monkeypatch, compute)
        for result, counts in outs[1:]:
            assert result == outs[0][0]
            assert counts == outs[0][1]
        assert outs[0][1]["workload"]["workload.chunks"] == 3 + 3

    def test_oversubscribed_fast_switching(self, monkeypatch):
        """More threads than cores and a 10 us switch interval: a lost
        update to a per-instance counter or a shared draw buffer would
        change the result."""
        mcs = (
            api.McRequest("cavemc", "BGC", 8, samples=8 * 4096, seed=4),
            api.McRequest("marginmc", "BGC", 8, samples=6 * 4096 + 5, seed=4),
        )
        wl = api.WorkloadRequest(
            family="BGC",
            total_length=8,
            accesses=4000,
            instances=12,
            parity_bits=6,
            error_rate=5e-3,
            seed=11,
        )

        def compute():
            memsim = api.memsim(wl, chunk_size=1000).to_dict()
            mc_results = [api.simulate(mc) for mc in mcs]
            return mc_results, json.dumps(memsim, sort_keys=True)

        force_width(monkeypatch, 1)
        serial = compute()
        force_width(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = compute()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestSlicing:
    #: Rows per slab of the split writes of the flip tests.
    SLAB_ROWS = 1024

    @pytest.mark.parametrize("samples", [1, 255, 257, 639, 640, 641])
    def test_tiled_margins_equal_loop(self, samples):
        # a 20-wire, 8-region half cave tiles 640 trials per slab (255
        # and 257 straddled the earlier (trials, N, N) kernel's slab)
        assert margins._TRIAL_SLAB_ELEMENTS // (20 * 8) == 640
        code = make_code("BGC", 2, 8)
        assert yield_kernel(SPEC, code, 3.0).patterns.shape == (20, 8)
        kwargs = dict(samples=samples, seed=9, k_sigma=2.5)
        loop = simulate_margin_yield_loop(SPEC, code, **kwargs)
        assert simulate_margin_yield(SPEC, code, **kwargs) == loop

    def test_tiled_margins_equal_loop_across_blocks(self):
        """4097 trials: a full 4096-trial stream block over several slabs
        plus a one-trial block (a smaller cave keeps the loop quick)."""
        spec = CrossbarSpec(nanowires_per_half_cave=8)
        code = make_code("BGC", 2, 6)
        assert margins._TRIAL_SLAB_ELEMENTS // (8 * 6) < 4096
        kwargs = dict(samples=4097, seed=2, k_sigma=2.0)
        loop = simulate_margin_yield_loop(spec, code, **kwargs)
        assert simulate_margin_yield(spec, code, **kwargs) == loop

    def test_realised_margins_keep_leading_shape(self):
        kernel = yield_kernel(SPEC, make_code("BGC", 2, 8), 3.0)
        z = np.random.default_rng(0).standard_normal((3, 300) + kernel.nominal.shape)
        vt = kernel.nominal + kernel.std * z
        select, block = kernel.realised_margins(vt)
        assert select.shape == block.shape == (3, 300, 20)
        _, flat_block = kernel.realised_margins(vt.reshape(900, 20, -1))
        assert block.reshape(900, 20).tobytes() == flat_block.tobytes()
        _, single_block = kernel.realised_margins(vt[2, 299])
        assert single_block.tobytes() == block[2, 299].tobytes()

    @pytest.mark.parametrize("rows_delta", [-SLAB_ROWS + 1, -1, 0, 1, 1500])
    @pytest.mark.parametrize("cols", [None, 1, 12])
    def test_slabbed_flips_equal_one_shot(self, rows_delta, cols):
        """Writing in row slabs flips the same bits as one write: the
        gaps drawn past a slab's end carry into the next slab."""
        rows = self.SLAB_ROWS + rows_delta
        width = 1 if cols is None else cols
        p = 0.3
        whole = memory_batch._FlipStream(np.random.default_rng(7), p)
        expected = whole.take(rows * width)
        split = memory_batch._FlipStream(np.random.default_rng(7), p)
        flips = np.concatenate(
            [
                split.take(min(self.SLAB_ROWS, rows - start) * width) + start * width
                for start in range(0, rows, self.SLAB_ROWS)
            ]
        )
        assert flips.dtype == np.int64
        assert np.array_equal(flips, expected)
        # both streams go on with the same flips
        assert np.array_equal(split.take(5000), whole.take(5000))


class TestForkHygiene:
    def test_no_thread_outlives_engine_calls(self, monkeypatch):
        force_width(monkeypatch, 2)
        before = threading.active_count()
        api.simulate(api.McRequest("marginmc", "BGC", 8, samples=12288, seed=1))
        assert threading.active_count() == before
        api.memsim(
            api.WorkloadRequest(
                family="BGC", total_length=8, accesses=2000, instances=3
            )
        )
        assert threading.active_count() == before

    @pytest.fixture
    def width_log(self, monkeypatch, tmp_path):
        """Record ``(pid, usable_cpus())`` at every engine and fleet
        parallel_map call.

        Fork-started children inherit the patch, so their calls land in
        the same log; the fixture returns the widths children saw.
        """
        log = tmp_path / "widths.log"
        real = batch.parallel_map

        def recording(fn, *iterables):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {batch.usable_cpus()}\n")
            return real(fn, *iterables)

        monkeypatch.setattr(engine, "parallel_map", recording)
        monkeypatch.setattr(memory_batch, "parallel_map", recording)

        def children() -> set[int]:
            lines = log.read_text().split() if log.exists() else []
            pairs = list(zip(lines[::2], lines[1::2]))
            return {int(w) for pid, w in pairs if int(pid) != os.getpid()}

        return children

    def _grid(self):
        from repro.exp import design_grid

        return design_grid(families=("TC", "BGC"), lengths=(6, 8))

    METRICS = ("workload", "marginmc")

    def test_sweep_pool_workers_run_serially(self, width_log):
        from repro.exp import clear_caches, run_sweep

        clear_caches()
        run_sweep(self._grid(), self.METRICS, spec=SPEC, jobs=2)
        assert width_log() == {1}

    def test_shard_workers_run_serially(self, width_log, tmp_path):
        from repro import dist
        from repro.exp import clear_caches

        clear_caches()
        sweep = dist.plan_sweep_shards(self._grid(), self.METRICS, shards=2, spec=SPEC)
        mc = dist.plan_mc_shards("cavemc", "BGC", 8, shards=2, samples=4 * 4096)
        for name, plan in (("sweep", sweep), ("mc", mc)):
            dist.write_job(tmp_path / name, plan)
            dist.launch(tmp_path / name, workers=2)
        assert width_log() == {1}

    @pytest.mark.skipif(
        sys.version_info < (3, 12), reason="fork-with-threads warning is 3.12+"
    )
    def test_launch_after_simulate_forks_without_warning(self, tmp_path):
        """``os.fork`` warns when the process has more than one OS thread.

        BLAS libraries keep their own thread pools, which would trip the
        warning whatever this package does, so the child runs with
        single-threaded BLAS: the check is that no engine thread is left.
        """
        script = (
            "import sys\n"
            "from repro import api, dist\n"
            "api.simulate(api.McRequest('cavemc', 'BGC', 8, samples=16384))\n"
            "api.simulate(api.McRequest('marginmc', 'BGC', 8, samples=8192))\n"
            "plan = dist.plan_mc_shards("
            "'marginmc', 'BGC', 8, shards=2, samples=8192)\n"
            "dist.write_job(sys.argv[1], plan)\n"
            "dist.launch(sys.argv[1], workers=2)\n"
            "print(dist.merge_results(sys.argv[1]).samples)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                script,
                str(tmp_path / "job"),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "8192"
