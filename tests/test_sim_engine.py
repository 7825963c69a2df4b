"""Equivalence/property suite for the batched Monte-Carlo engine.

The engine's contract, tested here:

* batched and legacy per-trial loops (inline, or the oracles in
  ``tests/oracles/montecarlo.py``) produce **identical** results for
  the same seed wherever they consume the random stream identically
  (stochastic baselines, batch-of-1 wrappers, region-VT draws);
* where the stream layouts differ by design (the spawned block streams
  of the cave-yield kernel), batched and loop agree **statistically**
  — within a few standard errors — and both agree with the analytic
  yield model;
* results never depend on ``max_trials_per_chunk``;
* trial budgets and chunk bounds are validated consistently.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.codes import make_code
from repro.crossbar.montecarlo import (
    MonteCarloYield,
    sample_electrical_mask,
    sample_geometric_mask,
    simulate_cave_yield,
)
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import crossbar_yield, decoder_for
from repro.decoder.addressing import sampled_addressable_mask
from repro.decoder.stochastic import (
    StochasticError,
    simulate_random_codes,
    simulate_random_contacts,
)
from repro.device.variability import sample_region_vt
from repro.sim import (
    Chunk,
    MonteCarloEngine,
    RandomCodesKernel,
    RandomContactsKernel,
    StreamingMoments,
    plan_chunks,
)
from repro.sim.batch import block_sizes
from tests.oracles.montecarlo import (
    simulate_cave_yield_loop,
    simulate_random_codes_loop,
    simulate_random_contacts_loop,
)

COMMON = settings(max_examples=25, deadline=None)


# -- accumulators --------------------------------------------------------------


class TestStreamingMoments:
    @COMMON
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        n_splits=st.integers(min_value=0, max_value=5),
        data=st.data(),
    )
    def test_matches_numpy_for_any_chunking(self, values, n_splits, data):
        arr = np.array(values)
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(0, arr.size), min_size=n_splits, max_size=n_splits
                )
            )
        )
        acc = StreamingMoments()
        for part in np.split(arr, cuts):
            acc.update(part)
        assert acc.count == arr.size
        assert acc.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)
        expected_std = arr.std(ddof=1) if arr.size > 1 else 0.0
        assert acc.std == pytest.approx(expected_std, rel=1e-7, abs=1e-7)

    def test_merge_equals_joint_update(self, rng):
        a, b = rng.normal(size=40), rng.normal(size=17)
        left, right, joint = (
            StreamingMoments(),
            StreamingMoments(),
            StreamingMoments(),
        )
        left.update(a)
        right.update(b)
        joint.update(np.concatenate([a, b]))
        left.merge(right)
        assert left.count == joint.count
        assert left.mean == pytest.approx(joint.mean, rel=1e-12)
        assert left.std == pytest.approx(joint.std, rel=1e-9)

    def test_single_value_has_zero_spread(self):
        acc = StreamingMoments()
        acc.update(np.array([0.25]))
        assert acc.mean == 0.25
        assert acc.std == 0.0
        assert acc.stderr == 0.0

    def test_empty_update_is_noop(self):
        acc = StreamingMoments()
        acc.update(np.array([]))
        assert acc.count == 0


# -- chunk planning ------------------------------------------------------------


class TestPlanChunks:
    @COMMON
    @given(
        samples=st.integers(min_value=1, max_value=50_000),
        chunk=st.integers(min_value=1, max_value=20_000),
        block=st.integers(min_value=1, max_value=5_000),
    )
    def test_plan_covers_every_trial_exactly_once(self, samples, chunk, block):
        chunks = plan_chunks(samples, chunk, block)
        assert chunks[0].start == 0
        assert chunks[-1].stop == samples
        for prev, nxt in zip(chunks, chunks[1:]):
            assert prev.stop == nxt.start
        per_chunk = max((chunk // block) * block, block)
        assert all(c.trials == per_chunk for c in chunks[:-1])
        assert 0 < chunks[-1].trials <= per_chunk
        for c in chunks:
            widths = block_sizes(c, block)
            assert sum(widths) == c.trials
            assert all(w <= block for w in widths)

    def test_chunk_boundaries_align_with_stream_blocks(self):
        chunks = plan_chunks(10_000, 1000, 300)
        # 1000 trials rounds down to 3 whole blocks of 300
        assert chunks[0] == Chunk(start=0, trials=900)
        assert all(c.start % 300 == 0 for c in chunks)

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            plan_chunks(0, 100)
        with pytest.raises(ValueError):
            plan_chunks(100, 0)
        with pytest.raises(ValueError):
            plan_chunks(100, 100, 0)


# -- stochastic baselines: exact stream equivalence ----------------------------


class TestRandomCodesEquivalence:
    @COMMON
    @given(
        group=st.integers(min_value=1, max_value=40),
        space=st.integers(min_value=1, max_value=500),
        samples=st.integers(min_value=1, max_value=300),
        chunk=st.integers(min_value=1, max_value=1000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batched_equals_loop_per_trial(self, group, space, samples, chunk, seed):
        """Exact equivalence: the streams match draw-for-draw."""
        engine = MonteCarloEngine(
            RandomCodesKernel(group, space), max_trials_per_chunk=chunk
        )
        result = engine.run(samples, np.random.default_rng(seed), collect=True)
        rng = np.random.default_rng(seed)
        loop = np.empty(samples)
        for t in range(samples):
            codes = rng.integers(0, space, size=group)
            _, counts = np.unique(codes, return_counts=True)
            loop[t] = counts[counts == 1].sum() / group
        assert np.array_equal(result.raw["unique_fraction"], loop)

    @COMMON
    @given(
        chunk_a=st.integers(min_value=1, max_value=400),
        chunk_b=st.integers(min_value=1, max_value=400),
    )
    def test_chunk_size_never_changes_results(self, chunk_a, chunk_b):
        a = simulate_random_codes(
            12, 30, 257, np.random.default_rng(8), max_trials_per_chunk=chunk_a
        )
        b = simulate_random_codes(
            12, 30, 257, np.random.default_rng(8), max_trials_per_chunk=chunk_b
        )
        assert a == b

    def test_public_methods_agree(self):
        loop = simulate_random_codes_loop(20, 64, 500, np.random.default_rng(4))
        batched = simulate_random_codes(20, 64, 500, np.random.default_rng(4))
        assert batched == pytest.approx(loop, rel=1e-12)


class TestRandomContactsEquivalence:
    @COMMON
    @given(
        group=st.integers(min_value=1, max_value=30),
        mesowires=st.integers(min_value=1, max_value=60),
        samples=st.integers(min_value=1, max_value=150),
        chunk=st.integers(min_value=1, max_value=500),
        p=st.sampled_from([0.3, 0.5, 0.9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batched_equals_loop_per_trial(
        self, group, mesowires, samples, chunk, p, seed
    ):
        engine = MonteCarloEngine(
            RandomContactsKernel(group, mesowires, p), max_trials_per_chunk=chunk
        )
        result = engine.run(samples, np.random.default_rng(seed), collect=True)
        rng = np.random.default_rng(seed)
        loop = np.empty(samples)
        for t in range(samples):
            sig = rng.random((group, mesowires)) < p
            _, inverse, counts = np.unique(
                sig, axis=0, return_inverse=True, return_counts=True
            )
            loop[t] = (counts[inverse] == 1).sum() / group
        assert np.array_equal(result.raw["unique_fraction"], loop)

    def test_multiword_signatures_use_exact_fallback(self):
        """> 52 mesowires exceed one float64 word; results stay exact."""
        loop = simulate_random_contacts_loop(6, 60, 100, np.random.default_rng(2))
        batched = simulate_random_contacts(6, 60, 100, np.random.default_rng(2))
        assert batched == pytest.approx(loop, rel=1e-12)


# -- cave yield: batch-of-1 exactness, chunk invariance, statistics ------------


class TestCaveYieldWrappers:
    def test_electrical_wrapper_is_batch_of_one(self, spec):
        decoder = decoder_for(spec, make_code("BGC", 2, 8))
        scalar = sample_electrical_mask(decoder, np.random.default_rng(6))
        batch = sample_electrical_mask(decoder, np.random.default_rng(6), trials=1)
        assert scalar.shape == (decoder.nanowires,)
        assert batch.shape == (1, decoder.nanowires)
        assert np.array_equal(scalar, batch[0])

    def test_electrical_wrapper_matches_seed_implementation(self, spec):
        """Same draws, same mask as the pre-engine classify-based path."""
        decoder = decoder_for(spec, make_code("TC", 2, 8))
        new = sample_electrical_mask(decoder, np.random.default_rng(123))
        rng = np.random.default_rng(123)
        vt = sample_region_vt(
            decoder.plan.nominal_vt(), decoder.nu, rng, decoder.sigma_t
        )
        seed_mask = sampled_addressable_mask(vt, decoder.patterns, decoder.scheme)
        assert np.array_equal(new, seed_mask)

    def test_geometric_wrapper_is_batch_of_one(self, spec):
        decoder = decoder_for(spec, make_code("TC", 2, 6))  # 3 groups
        scalar = sample_geometric_mask(decoder, np.random.default_rng(6))
        batch = sample_geometric_mask(decoder, np.random.default_rng(6), trials=1)
        assert np.array_equal(scalar, batch[0])

    def test_batched_masks_equal_sequential_masks(self, spec):
        """A (trials, N) batch consumes the stream like repeated calls."""
        decoder = decoder_for(spec, make_code("TC", 2, 6))
        batch = sample_geometric_mask(decoder, np.random.default_rng(9), trials=7)
        rng = np.random.default_rng(9)
        stacked = np.stack([sample_geometric_mask(decoder, rng) for _ in range(7)])
        assert np.array_equal(batch, stacked)

    def test_region_vt_trial_axis(self, binary_scheme, rng):
        nominal = np.full((4, 3), 0.25)
        nu = np.ones((4, 3))
        single = sample_region_vt(nominal, nu, np.random.default_rng(1))
        batch1 = sample_region_vt(nominal, nu, np.random.default_rng(1), trials=1)
        assert np.array_equal(single, batch1[0])
        many = sample_region_vt(nominal, nu, rng, trials=5)
        assert many.shape == (5, 4, 3)
        with pytest.raises(ValueError):
            sample_region_vt(nominal, nu, rng, trials=0)

    def test_addressable_mask_broadcasts_over_trials(self, binary_scheme, rng):
        patterns = np.array([[0, 1], [1, 0], [1, 1]])
        vt = sample_region_vt(
            np.asarray(binary_scheme.levels)[patterns],
            np.ones_like(patterns),
            rng,
            sigma_t=0.2,
            trials=50,
        )
        batched = sampled_addressable_mask(vt, patterns, binary_scheme)
        assert batched.shape == (50, 3)
        stacked = np.stack(
            [
                sampled_addressable_mask(vt[t], patterns, binary_scheme)
                for t in range(50)
            ]
        )
        assert np.array_equal(batched, stacked)


class TestCaveYieldEngine:
    @pytest.mark.parametrize("chunk", [1, 999, 4096, 10**6])
    def test_chunk_size_never_changes_results(self, spec, chunk):
        code = make_code("BGC", 2, 8)
        baseline = simulate_cave_yield(spec, code, samples=3000, seed=7)
        other = simulate_cave_yield(
            spec, code, samples=3000, seed=7, max_trials_per_chunk=chunk
        )
        assert other == baseline

    def test_deterministic_for_a_seed(self, spec):
        code = make_code("TC", 2, 8)
        a = simulate_cave_yield(spec, code, samples=500, seed=3)
        b = simulate_cave_yield(spec, code, samples=500, seed=3)
        assert a == b

    def test_statistical_agreement_loop_vs_batched_vs_analytic(self, spec):
        """Streams differ by design; estimates agree within stderr."""
        for family, length in [("TC", 8), ("BGC", 10), ("HC", 6)]:
            code = make_code(family, 2, length)
            batched = simulate_cave_yield(spec, code, samples=4000, seed=17)
            loop = simulate_cave_yield_loop(spec, code, samples=1000, seed=17)
            analytic = crossbar_yield(spec, code).cave_yield
            tol = 4 * (batched.stderr + loop.stderr)
            assert batched.mean_cave_yield == pytest.approx(
                loop.mean_cave_yield, abs=max(0.02, tol)
            )
            assert batched.mean_cave_yield == pytest.approx(
                analytic, abs=max(0.02, 5 * batched.stderr)
            )

    def test_loop_method_matches_pre_engine_simulator(self, spec):
        """The loop oracle still draws exactly like the seed implementation."""
        code = make_code("BGC", 2, 8)
        mc = simulate_cave_yield_loop(spec, code, samples=200, seed=3)
        decoder = decoder_for(spec, code)
        rng = np.random.default_rng(3)
        cave = np.empty(200)
        for s in range(200):
            nominal = decoder.plan.nominal_vt()
            vt = sample_region_vt(nominal, decoder.nu, rng, decoder.sigma_t)
            e_mask = sampled_addressable_mask(vt, decoder.patterns, decoder.scheme)
            g_mask = sample_geometric_mask(decoder, rng)
            cave[s] = (e_mask & g_mask).mean()
        assert mc.mean_cave_yield == pytest.approx(cave.mean(), rel=1e-12)

    def test_engine_collect_returns_per_trial_fractions(self, spec):
        from repro.sim import CaveYieldKernel

        decoder = decoder_for(spec, make_code("TC", 2, 6))
        engine = MonteCarloEngine(CaveYieldKernel(decoder))
        result = engine.run(123, 5, collect=True)
        assert result.raw["cave"].shape == (123,)
        assert result["cave"].mean == pytest.approx(
            result.raw["cave"].mean(), rel=1e-12
        )
        assert np.all(result.raw["cave"] <= result.raw["electrical"] + 1e-12)


#: sha256 of ``api.mc_result_to_dict(api.simulate(request))`` (sorted-key
#: JSON), recorded with the kernel that drew each block's region VTs as
#: one ``(M, trials, N)`` array.  4097, 5000 and 2500 samples end on a
#: partial stream block.
PINNED_CAVEMC = {
    "bgc_m8": (
        dict(family="BGC", total_length=8, samples=5000, seed=1),
        "b4803d6115f7255076ebf1c4254d983926401404dd99e34db615101aa6d05afc",
    ),
    "tc_n3_m6": (
        dict(family="TC", total_length=6, n=3, samples=4097, seed=2),
        "db443c9427a42194adb971f7035c1cc3fc4a9fb9ed1cbc06038e514e0e151f68",
    ),
    "gc_m10": (
        dict(family="GC", total_length=10, samples=3000, seed=3),
        "848eb674e8d561dd4ec5b7b206dfaa16f1f50be21d575e49b616113f5841a494",
    ),
    "hc_m6": (
        dict(family="HC", total_length=6, samples=2000, seed=4),
        "346bbe4e46e7e8a7b39254caef4d8f8729617d2d148e04a633f98f3d4663c981",
    ),
    "ahc_m8": (
        dict(family="AHC", total_length=8, samples=4096, seed=5),
        "f06058a952977a224bd444d47ba13cd0fa2c4cf3fd874abb0c782df83eee6f68",
    ),
    "gc_m8_n41": (
        dict(
            family="GC",
            total_length=8,
            samples=1200,
            seed=6,
            spec=CrossbarSpec(nanowires_per_half_cave=41),
        ),
        "41f69ed9190a423e0e792389af89768e75f10bdd8017a62c6b313484df7773d9",
    ),
    "bgc_n3_m6_block1000": (
        dict(
            family="BGC",
            total_length=6,
            n=3,
            samples=2500,
            seed=7,
            stream_block=1000,
        ),
        "7d366bc163fecd53b336b24ffd124dd393ae92206d6ea59ba001194290b1ace9",
    ),
    "tc_m4_sigma08_wm05": (
        dict(
            family="TC",
            total_length=4,
            samples=9000,
            seed=8,
            spec=CrossbarSpec(sigma_t=0.08, window_margin=0.5),
        ),
        "33913ca6260298a6dffe535cbb69f9c2894a9a54cc44563a127ee0679fb45e1b",
    ),
}


class TestPinnedCaveDigests:
    @pytest.mark.parametrize("name", sorted(PINNED_CAVEMC))
    def test_cavemc_result_digest(self, name):
        fields, digest = PINNED_CAVEMC[name]
        result = api.simulate(api.McRequest("cavemc", **fields))
        blob = json.dumps(api.mc_result_to_dict(result), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


# -- validation consistency ----------------------------------------------------


class TestValidation:
    def test_simulate_cave_yield_rejects_bad_budgets(self, spec):
        code = make_code("TC", 2, 8)
        for kwargs in (
            {"samples": 0},
            {"samples": 100, "max_trials_per_chunk": 0},
        ):
            with pytest.raises(ValueError):
                simulate_cave_yield(spec, code, seed=0, **kwargs)

    def test_engine_rejects_bad_budgets(self):
        engine = MonteCarloEngine(RandomCodesKernel(5, 5))
        with pytest.raises(ValueError):
            engine.run(0)
        with pytest.raises(ValueError):
            MonteCarloEngine(RandomCodesKernel(5, 5), max_trials_per_chunk=0).run(10)

    def test_stochastic_entry_points_reject_bad_budgets(self):
        rng = np.random.default_rng(0)
        for fn in (
            lambda **kw: simulate_random_codes(5, 5, rng=rng, **kw),
            lambda **kw: simulate_random_contacts(5, 5, rng=rng, **kw),
        ):
            with pytest.raises(StochasticError):
                fn(samples=0)
            with pytest.raises(StochasticError):
                fn(samples=10, max_trials_per_chunk=0)

    def test_stderr_guards_single_sample(self, spec):
        mc = simulate_cave_yield(spec, make_code("TC", 2, 8), samples=1, seed=0)
        assert mc.samples == 1
        assert mc.std_cave_yield == 0.0
        assert mc.stderr == 0.0
        direct = MonteCarloYield(
            samples=1,
            mean_cave_yield=0.5,
            std_cave_yield=0.0,
            mean_electrical_yield=0.5,
            mean_geometric_yield=1.0,
        )
        assert direct.stderr == 0.0
