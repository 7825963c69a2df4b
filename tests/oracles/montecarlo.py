"""Scalar Monte-Carlo loops and samplers: the seed cave-yield loop, its
VT-space masks, and the stochastic baselines."""

from __future__ import annotations

import numpy as np

from repro.crossbar.montecarlo import MonteCarloYield, yield_kernel
from repro.decoder.stochastic import (
    _validate_trial_budget,
    random_contact_addressable_fraction,
    unique_code_probability,
)
from repro.sim.batch import validate_samples


def z_space_electrical_masks(decoder, rng, trials: int) -> np.ndarray:
    """``(trials, N)`` electrical masks drawn in VT space.

    One standard normal ``z`` per (trial, wire, region), drawn as a
    ``(trials, N, M)`` array; a wire is addressable iff every region's
    ``|z| <= window_halfwidth / sigma_region``, i.e. its realised VT
    lies in the level's window.  A batch of one consumes the stream
    exactly like the seed's per-trial VT draw.  The product kernel
    samples the same law with one uniform per wire.
    """
    std = decoder.sigma_t * np.sqrt(np.asarray(decoder.nu, dtype=float))
    zmax = decoder.scheme.window_halfwidth / std
    z = rng.standard_normal((trials,) + zmax.shape)
    return (np.abs(z) <= zmax).all(axis=-1)


def distance_geometric_masks(kernel, rng, trials: int) -> np.ndarray:
    """``(trials, N)`` boundary survival masks from per-wire distances.

    The float formula ``|centre - boundary| > halfzone`` the product
    kernel replaced with integer index ranges; same draws, same masks.
    """
    centres = (kernel.wires + 0.5) * kernel.pitch
    offsets = rng.uniform(
        -kernel.tolerance, kernel.tolerance, size=(trials, kernel.boundaries.size)
    )
    mask = np.ones((trials, centres.size), dtype=bool)
    for b in range(kernel.boundaries.size):
        position = kernel.boundaries[b] + offsets[:, b]
        mask &= np.abs(centres[None, :] - position[:, None]) > kernel.halfzone
    return mask


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
        e_mask = z_space_electrical_masks(kernel.decoder, rng, 1)[0]
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
