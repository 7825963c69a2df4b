"""Unit tests for repro.crossbar.montecarlo."""

import numpy as np
import pytest

from repro.codes import make_code
from repro.crossbar.montecarlo import (
    sample_electrical_mask,
    sample_geometric_mask,
    simulate_cave_yield,
)
from repro.crossbar.yield_model import crossbar_yield, decoder_for
from tests.oracles.montecarlo import simulate_cave_yield_loop


class TestSampleMasks:
    def test_electrical_mask_shape(self, spec, rng):
        decoder = decoder_for(spec, make_code("BGC", 2, 8))
        mask = sample_electrical_mask(decoder, rng)
        assert mask.shape == (20,)
        assert mask.dtype == bool

    def test_geometric_mask_single_group_all_pass(self, spec, rng):
        decoder = decoder_for(spec, make_code("BGC", 2, 10))  # Omega = 32 > 20
        mask = sample_geometric_mask(decoder, rng)
        assert mask.all()

    def test_geometric_mask_removes_boundary_wires(self, spec, rng):
        decoder = decoder_for(spec, make_code("TC", 2, 6))  # 3 groups
        mask = sample_geometric_mask(decoder, rng)
        assert not mask.all()
        # losses concentrated near the two boundaries at wires ~6-7, ~13-14
        lost = np.flatnonzero(~mask)
        assert all(3 <= i <= 17 for i in lost)


class TestSimulateCaveYield:
    def test_deterministic_with_seed(self, spec):
        code = make_code("BGC", 2, 8)
        a = simulate_cave_yield(spec, code, samples=50, seed=3)
        b = simulate_cave_yield(spec, code, samples=50, seed=3)
        assert a.mean_cave_yield == b.mean_cave_yield

    def test_agrees_with_analytic(self, spec):
        """The MC simulator validates the analytic independence model."""
        for family, length in [("TC", 8), ("BGC", 10), ("HC", 6)]:
            code = make_code(family, 2, length)
            mc = simulate_cave_yield(spec, code, samples=400, seed=11)
            analytic = crossbar_yield(spec, code).cave_yield
            assert mc.mean_cave_yield == pytest.approx(
                analytic, abs=max(0.03, 4 * mc.stderr)
            )

    def test_components_reported(self, spec):
        mc = simulate_cave_yield(spec, make_code("TC", 2, 6), samples=100, seed=5)
        assert 0 < mc.mean_electrical_yield <= 1
        assert 0 < mc.mean_geometric_yield <= 1
        assert mc.mean_cave_yield <= min(
            mc.mean_electrical_yield, mc.mean_geometric_yield
        ) + 1e-9

    def test_stderr_shrinks_with_samples(self, spec):
        code = make_code("TC", 2, 8)
        small = simulate_cave_yield(spec, code, samples=50, seed=1)
        large = simulate_cave_yield(spec, code, samples=800, seed=1)
        assert large.stderr < small.stderr

    def test_rejects_zero_samples(self, spec):
        with pytest.raises(ValueError):
            simulate_cave_yield(spec, make_code("TC", 2, 8), samples=0)

    def test_single_sample_has_zero_stderr(self, spec):
        for simulate in (simulate_cave_yield, simulate_cave_yield_loop):
            mc = simulate(spec, make_code("TC", 2, 8), samples=1, seed=2)
            assert mc.std_cave_yield == 0.0
            assert mc.stderr == 0.0

    def test_methods_agree_statistically(self, spec):
        code = make_code("BGC", 2, 8)
        batched = simulate_cave_yield(spec, code, samples=2000, seed=3)
        loop = simulate_cave_yield_loop(spec, code, samples=500, seed=3)
        assert batched.mean_cave_yield == pytest.approx(
            loop.mean_cave_yield, abs=4 * (batched.stderr + loop.stderr)
        )

    def test_batched_masks_carry_trial_axis(self, spec, rng):
        decoder = decoder_for(spec, make_code("BGC", 2, 8))
        masks = sample_electrical_mask(decoder, rng, trials=6)
        assert masks.shape == (6, 20)
        assert masks.dtype == bool
