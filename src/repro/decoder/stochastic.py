"""Stochastic decoder baselines (paper references [6] and [8]).

The paper's first stated novelty is that the MSPT decoder "assigns a
deterministic address to every nanowire, unlike other decoders [6, 8]".
Those prior decoders bridge the sub-litho/litho scales *stochastically*:

* **randomised-code decoders** (DeHon et al. [6]) — every nanowire
  carries a code drawn (approximately) uniformly at random from a code
  space of size Omega; a wire is usable only if no other wire of its
  contact group carries the same code;
* **random-contact decoders** (Hogg et al. [8]) — each mesowire
  connects to each nanowire independently with probability p, and a
  wire is usable if its random connection signature is unique.

This module implements both baselines analytically and by Monte-Carlo,
so the deterministic-vs-stochastic comparison the paper argues
qualitatively can be *measured*: the deterministic MSPT decoder
addresses every wire by construction, while the stochastic schemes lose
a code-space and group-size dependent fraction and need over-provisioned
code spaces (Omega >> group size) to stay competitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StochasticError(ValueError):
    """Raised for inconsistent stochastic-decoder parameters."""


# -- randomised-code decoder (DeHon [6]) --------------------------------------


def unique_code_probability(group_size: int, code_space: int) -> float:
    """P(a given wire's random code is unique within its contact group).

    With codes i.i.d. uniform over ``Omega`` possibilities, the other
    ``G - 1`` wires must all miss this wire's code:
    ``(1 - 1/Omega) ** (G - 1)``.
    """
    if group_size < 1:
        raise StochasticError(f"group size must be >= 1, got {group_size}")
    if code_space < 1:
        raise StochasticError(f"code space must be >= 1, got {code_space}")
    return (1.0 - 1.0 / code_space) ** (group_size - 1)


def expected_addressable_fraction(group_size: int, code_space: int) -> float:
    """Expected fraction of wires with group-unique random codes.

    This is the per-wire uniqueness probability (linearity of
    expectation): the randomised-code decoder's analogue of the
    electrical yield.
    """
    return unique_code_probability(group_size, code_space)


def required_code_space(group_size: int, target_fraction: float) -> int:
    """Smallest Omega reaching ``target_fraction`` addressable wires.

    Shows the over-provisioning cost of stochastic addressing: for
    ``G = 20`` and a 95% target the decoder needs Omega ~ 372, whereas
    the deterministic MSPT decoder needs exactly Omega = 20.
    """
    if not 0.0 < target_fraction < 1.0:
        raise StochasticError(
            f"target fraction must be in (0, 1), got {target_fraction}"
        )
    omega = group_size  # deterministic lower bound
    while expected_addressable_fraction(group_size, omega) < target_fraction:
        omega = max(omega + 1, int(omega * 1.1))
    return omega


def _validate_trial_budget(samples: int, max_trials_per_chunk: int) -> None:
    if samples < 1:
        raise StochasticError(f"need at least one sample, got {samples}")
    if max_trials_per_chunk < 1:
        raise StochasticError(f"chunk size must be >= 1, got {max_trials_per_chunk}")


def simulate_random_codes(
    group_size: int,
    code_space: int,
    samples: int,
    rng: np.random.Generator,
    *,
    max_trials_per_chunk: int = 65536,
) -> float:
    """Monte-Carlo estimate of the group-unique fraction.

    Draws all codes of a chunk in one array call via
    :class:`repro.sim.engine.RandomCodesKernel`; because the batched
    draws consume ``rng`` in the same order as the per-trial loop, the
    per-trial fractions are bit-identical to that loop for the same
    generator state, independent of ``max_trials_per_chunk`` (the mean
    may differ by float summation order only).
    """
    from repro.sim.engine import MonteCarloEngine, RandomCodesKernel

    unique_code_probability(group_size, code_space)  # validates both args
    _validate_trial_budget(samples, max_trials_per_chunk)
    engine = MonteCarloEngine(
        RandomCodesKernel(group_size, code_space),
        max_trials_per_chunk=max_trials_per_chunk,
    )
    return float(engine.run(samples, rng)["unique_fraction"].mean)


# -- random-contact decoder (Hogg [8]) ----------------------------------------


def signature_collision_probability(
    mesowires: int, connection_probability: float
) -> float:
    """P(two wires share one random connection signature).

    Each of the ``M`` mesowires connects to a wire independently with
    probability ``p``; two signatures collide when they agree on every
    mesowire: ``(p^2 + (1-p)^2) ** M``.
    """
    if mesowires < 1:
        raise StochasticError(f"need at least one mesowire, got {mesowires}")
    if not 0.0 <= connection_probability <= 1.0:
        raise StochasticError(
            f"connection probability must be in [0, 1], got {connection_probability}"
        )
    p = connection_probability
    return (p * p + (1.0 - p) * (1.0 - p)) ** mesowires


def random_contact_addressable_fraction(
    group_size: int,
    mesowires: int,
    connection_probability: float = 0.5,
) -> float:
    """Expected fraction of wires with a group-unique random signature.

    A wire survives if its signature differs from those of all other
    ``G - 1`` wires (union bound is avoided — signatures are i.i.d., so
    the per-pair miss probability exponentiates).
    """
    if group_size < 1:
        raise StochasticError(f"group size must be >= 1, got {group_size}")
    collide = signature_collision_probability(mesowires, connection_probability)
    return (1.0 - collide) ** (group_size - 1)


def simulate_random_contacts(
    group_size: int,
    mesowires: int,
    samples: int,
    rng: np.random.Generator,
    connection_probability: float = 0.5,
    *,
    max_trials_per_chunk: int = 65536,
) -> float:
    """Monte-Carlo estimate of the random-contact unique fraction.

    Batched via :class:`repro.sim.engine.RandomContactsKernel`; same
    draw-for-draw equivalence contract as :func:`simulate_random_codes`.
    """
    from repro.sim.engine import MonteCarloEngine, RandomContactsKernel

    random_contact_addressable_fraction(
        group_size, mesowires, connection_probability
    )  # validates all three args
    _validate_trial_budget(samples, max_trials_per_chunk)
    engine = MonteCarloEngine(
        RandomContactsKernel(group_size, mesowires, connection_probability),
        max_trials_per_chunk=max_trials_per_chunk,
    )
    return float(engine.run(samples, rng)["unique_fraction"].mean)


# -- comparison against the deterministic MSPT decoder ------------------------


@dataclass(frozen=True)
class BaselineComparison:
    """Addressable fractions of the three decoder styles at equal size."""

    group_size: int
    code_space: int
    mesowires: int
    deterministic_fraction: float
    random_code_fraction: float
    random_contact_fraction: float


def compare_with_deterministic(
    group_size: int,
    code_space: int,
    mesowires: int,
) -> BaselineComparison:
    """One row of the deterministic-vs-stochastic comparison.

    The deterministic MSPT decoder addresses every wire as long as the
    code space covers the group (paper Sec. 3); stochastic schemes lose
    collision-prone wires even then.
    """
    deterministic = 1.0 if code_space >= group_size else code_space / group_size
    return BaselineComparison(
        group_size=group_size,
        code_space=code_space,
        mesowires=mesowires,
        deterministic_fraction=deterministic,
        random_code_fraction=expected_addressable_fraction(group_size, code_space),
        random_contact_fraction=random_contact_addressable_fraction(
            group_size, mesowires
        ),
    )
