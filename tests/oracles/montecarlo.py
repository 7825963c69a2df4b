"""Scalar Monte-Carlo loops: the seed cave-yield loop and stochastic baselines."""

from __future__ import annotations

import numpy as np

from repro.crossbar.montecarlo import MonteCarloYield, yield_kernel
from repro.decoder.stochastic import (
    _validate_trial_budget,
    random_contact_addressable_fraction,
    unique_code_probability,
)
from repro.sim.batch import validate_samples


def simulate_cave_yield_loop(spec, space, samples=200, seed=0) -> MonteCarloYield:
    """The seed's per-trial cave-yield loop on one ``default_rng(seed)``.

    A golden fixture, draw-for-draw compatible with the seed simulator;
    the engine samples the same distribution from spawned per-block
    streams, so the two agree within Monte-Carlo error only.
    """
    validate_samples(samples)
    kernel = yield_kernel(spec, space)
    rng = np.random.default_rng(seed)
    cave = np.empty(samples)
    electrical = np.empty(samples)
    geometric = np.empty(samples)
    for s in range(samples):
        e_mask = kernel.electrical_masks(rng, 1)[0]
        g_mask = kernel.geometric_masks(rng, 1)[0]
        electrical[s] = e_mask.mean()
        geometric[s] = g_mask.mean()
        cave[s] = (e_mask & g_mask).mean()
    return MonteCarloYield(
        samples=samples,
        mean_cave_yield=float(cave.mean()),
        std_cave_yield=float(cave.std(ddof=1)) if samples > 1 else 0.0,
        mean_electrical_yield=float(electrical.mean()),
        mean_geometric_yield=float(geometric.mean()),
    )


def simulate_random_codes_loop(
    group_size: int,
    code_space: int,
    samples: int,
    rng: np.random.Generator,
    *,
    max_trials_per_chunk: int = 65536,
) -> float:
    """DeHon [6] randomised codes, one trial per iteration."""
    unique_code_probability(group_size, code_space)  # validates both args
    _validate_trial_budget(samples, max_trials_per_chunk)
    total = 0.0
    for _ in range(samples):
        codes = rng.integers(0, code_space, size=group_size)
        _, counts = np.unique(codes, return_counts=True)
        total += counts[counts == 1].sum() / group_size
    return total / samples


def simulate_random_contacts_loop(
    group_size: int,
    mesowires: int,
    samples: int,
    rng: np.random.Generator,
    connection_probability: float = 0.5,
    *,
    max_trials_per_chunk: int = 65536,
) -> float:
    """Hogg [8] random contacts, one trial per iteration."""
    random_contact_addressable_fraction(
        group_size, mesowires, connection_probability
    )  # validates all three args
    _validate_trial_budget(samples, max_trials_per_chunk)
    total = 0.0
    for _ in range(samples):
        sig = rng.random((group_size, mesowires)) < connection_probability
        # count wires whose signature row is unique
        _, inverse, counts = np.unique(
            sig, axis=0, return_inverse=True, return_counts=True
        )
        total += (counts[inverse] == 1).sum() / group_size
    return total / samples
