"""Seeded golden-regression tests for the Monte-Carlo simulators.

These pin the exact numbers produced by canonical seeded runs so a
future refactor cannot silently drift the figures:

* loop goldens are bit-compatible with the seed (pre-engine)
  implementation of ``simulate_cave_yield`` — they were computed with
  the original per-trial loop, kept as the golden fixture in
  ``tests/oracles/montecarlo.py``, and must keep matching;
* batched goldens pin the engine's spawned-stream layout (seed +
  stream block) and its per-wire uniform sampler, which the
  reproducibility contract freezes;
* the stochastic-baseline goldens pin the shared-stream draws common
  to the engine and the loop oracles.

Tolerance is ``rel=1e-12``: tight enough to catch any change in draws
or masking, loose enough to ignore float summation-order noise.
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.crossbar.montecarlo import simulate_cave_yield
from repro.crossbar.spec import CrossbarSpec
from repro.decoder.stochastic import (
    simulate_random_codes,
    simulate_random_contacts,
)
from tests.oracles.montecarlo import (
    simulate_cave_yield_loop,
    simulate_random_codes_loop,
    simulate_random_contacts_loop,
)

GOLDEN_RTOL = 1e-12

#: (family, length, samples, seed) -> (cave, std, electrical, geometric)
LOOP_GOLDENS = {
    ("BGC", 8, 400, 11): (
        0.714375,
        0.05707673571078235,
        0.9127500000000001,
        0.788625,
    ),
    ("TC", 6, 300, 5): (
        0.4081666666666667,
        0.06799792606188773,
        0.7190000000000001,
        0.578,
    ),
}

BATCHED_GOLDENS = {
    ("BGC", 8, 2000, 7): (
        0.71545,
        0.0574712882619421,
        0.913625,
        0.7900500000000001,
    ),
    ("TC", 6, 2000, 7): (
        0.405925,
        0.07180684150025764,
        0.719125,
        0.5801,
    ),
    ("AHC", 6, 2000, 7): (
        0.8631749999999999,
        0.07244165425800143,
        0.8631749999999999,
        1.0,
    ),
}


def _check(mc, expected):
    cave, std, electrical, geometric = expected
    assert mc.mean_cave_yield == pytest.approx(cave, rel=GOLDEN_RTOL)
    assert mc.std_cave_yield == pytest.approx(std, rel=GOLDEN_RTOL)
    assert mc.mean_electrical_yield == pytest.approx(electrical, rel=GOLDEN_RTOL)
    assert mc.mean_geometric_yield == pytest.approx(geometric, rel=GOLDEN_RTOL)


class TestCaveYieldGoldens:
    @pytest.mark.parametrize("point", sorted(LOOP_GOLDENS))
    def test_loop_method_pinned(self, point):
        family, length, samples, seed = point
        mc = simulate_cave_yield_loop(
            CrossbarSpec(),
            make_code(family, 2, length),
            samples=samples,
            seed=seed,
        )
        _check(mc, LOOP_GOLDENS[point])

    @pytest.mark.parametrize("point", sorted(BATCHED_GOLDENS))
    def test_batched_method_pinned(self, point):
        family, length, samples, seed = point
        mc = simulate_cave_yield(
            CrossbarSpec(),
            make_code(family, 2, length),
            samples=samples,
            seed=seed,
        )
        _check(mc, BATCHED_GOLDENS[point])

    def test_batched_golden_is_chunk_invariant(self):
        """The pinned value must hold for any chunking of the same run."""
        mc = simulate_cave_yield(
            CrossbarSpec(),
            make_code("BGC", 2, 8),
            samples=2000,
            seed=7,
            max_trials_per_chunk=777,
        )
        _check(mc, BATCHED_GOLDENS[("BGC", 8, 2000, 7)])


class TestStochasticBaselineGoldens:
    def test_random_codes_pinned(self):
        batched = simulate_random_codes(20, 64, 4000, np.random.default_rng(3))
        loop = simulate_random_codes_loop(20, 64, 4000, np.random.default_rng(3))
        assert batched == pytest.approx(0.7391875, rel=GOLDEN_RTOL)
        assert loop == pytest.approx(0.7391875, rel=1e-9)

    def test_random_contacts_pinned(self):
        batched = simulate_random_contacts(10, 8, 4000, np.random.default_rng(3))
        loop = simulate_random_contacts_loop(10, 8, 4000, np.random.default_rng(3))
        assert batched == pytest.approx(0.963425, rel=GOLDEN_RTOL)
        assert loop == pytest.approx(0.963425, rel=1e-9)
