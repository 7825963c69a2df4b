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
from repro.device.variability import region_pass_probability, sample_region_vt
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
    distance_geometric_masks,
    simulate_cave_yield_loop,
    simulate_random_codes_loop,
    simulate_random_contacts_loop,
    z_space_electrical_masks,
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

    def test_z_space_oracle_matches_seed_implementation(self, spec):
        """The VT-space oracle: same draws, same mask as the pre-engine
        classify-based path."""
        decoder = decoder_for(spec, make_code("TC", 2, 8))
        oracle = z_space_electrical_masks(decoder, np.random.default_rng(123), 1)
        rng = np.random.default_rng(123)
        vt = sample_region_vt(
            decoder.plan.nominal_vt(), decoder.nu, rng, decoder.sigma_t
        )
        seed_mask = sampled_addressable_mask(vt, decoder.patterns, decoder.scheme)
        assert np.array_equal(oracle[0], seed_mask)

    def test_wire_probability_is_region_product_bit_for_bit(self, spec):
        """The kernel's per-wire p is the product of the regions' window
        integrals, multiplied region by region."""
        for family, length in [("TC", 8), ("BGC", 8), ("GC", 10), ("AHC", 6)]:
            decoder = decoder_for(spec, make_code(family, 2, length))
            regions = region_pass_probability(
                decoder.nu, decoder.scheme.window_halfwidth, decoder.sigma_t
            )
            product = np.ones(decoder.nanowires)
            for column in regions.T:
                product = product * column
            p = decoder.montecarlo_kernel.wire_p
            assert p.tobytes() == product.tobytes()

    @pytest.mark.parametrize("family, length", [("TC", 8), ("BGC", 10), ("HC", 6)])
    def test_kernel_agrees_with_z_space_oracle(self, spec, family, length):
        """Per wire, the uniform sampler and the VT-space oracle hit the
        same addressability rate within Monte-Carlo error (5 sigma)."""
        decoder = decoder_for(spec, make_code(family, 2, length))
        trials = 40_000
        kernel = decoder.montecarlo_kernel.electrical_masks(
            np.random.default_rng(31), trials
        ).mean(axis=0)
        oracle = z_space_electrical_masks(
            decoder, np.random.default_rng(32), trials
        ).mean(axis=0)
        p = decoder.wire_probabilities
        sigma = np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(kernel - oracle) <= 5 * np.sqrt(2) * sigma + 1e-12)
        assert np.all(np.abs(kernel - p) <= 5 * sigma + 1e-12)

    def test_integer_geometric_masks_equal_distance_formula(self, spec):
        """Same offsets, same masks as ``|centre - boundary| > halfzone``."""
        for family, length, n, kw in [
            ("BGC", 8, 2, {}),
            ("GC", 8, 2, {"nanowires_per_half_cave": 41}),
            ("TC", 4, 2, {"sigma_t": 0.08, "window_margin": 0.5}),
        ]:
            decoder = decoder_for(CrossbarSpec(**kw), make_code(family, n, length))
            kernel = decoder.montecarlo_kernel
            assert kernel.boundaries.size > 0
            masks = kernel.geometric_masks(np.random.default_rng(4), 20_000)
            oracle = distance_geometric_masks(kernel, np.random.default_rng(4), 20_000)
            assert np.array_equal(masks, oracle)

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
#: JSON), recorded with the v2 kernel that draws one uniform per wire.
#: Every case but ``ahc_m8`` (4096 samples) ends on a partial stream
#: block.
PINNED_CAVEMC = {
    "bgc_m8": (
        dict(family="BGC", total_length=8, samples=5000, seed=1),
        "00c8cddccf545da2d857ff2741090ddf8c8a95dfd7e1b625dbb827c457711f84",
    ),
    "tc_n3_m6": (
        dict(family="TC", total_length=6, n=3, samples=4097, seed=2),
        "d3f8c1b88d5c9530f39276208281d606998fbd0361e4283a899aa5609c077519",
    ),
    "gc_m10": (
        dict(family="GC", total_length=10, samples=3000, seed=3),
        "43312c4e9f510db5f6c20eab8caeb3036aa63fb663aa9d4a697e82b5358177f5",
    ),
    "hc_m6": (
        dict(family="HC", total_length=6, samples=2000, seed=4),
        "d686f6b6021b80295b519cae48b9e1a29d43388ded46f44dbcc85b6b29d2c903",
    ),
    "ahc_m8": (
        dict(family="AHC", total_length=8, samples=4096, seed=5),
        "ec967ce025c4c27fdee6fb4d932852964944b6ba847ae58e8fc7183fe0fe2bab",
    ),
    "gc_m8_n41": (
        dict(
            family="GC",
            total_length=8,
            samples=1200,
            seed=6,
            spec=CrossbarSpec(nanowires_per_half_cave=41),
        ),
        "bf68a2b79118cbd81d67058b35945db63432453b1d3d92213dd68667f616d47e",
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
        "195398e1f4f731c6baad3b32627d15a2b805b72c1dca7a9f44bd4b69fa522ed2",
    ),
    "tc_m4_sigma08_wm05": (
        dict(
            family="TC",
            total_length=4,
            samples=9000,
            seed=8,
            spec=CrossbarSpec(sigma_t=0.08, window_margin=0.5),
        ),
        "33f14fab3ca70c6333dd77eeaf9b34ec7d2abe75c6df96e895e9760924398bdb",
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
