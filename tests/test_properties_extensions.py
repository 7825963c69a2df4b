"""Property-based tests (hypothesis) for the extension modules.

Covers the exact-optimality identities, the stochastic baselines, the
read-out solver's physical invariants and the address-map bijection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import TreeCode
from repro.codes.optimal import sigma_cost_of_order
from repro.crossbar.readout import ReadoutModel
from repro.decoder.stochastic import (
    expected_addressable_fraction,
    random_contact_addressable_fraction,
    signature_collision_probability,
)
from repro.decoder.variability import code_variability, sigma_norm1


# -- sigma-cost identity on random arrangements --------------------------------


@st.composite
def space_and_order(draw):
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 3))
    space = TreeCode(n, m)
    order = draw(st.permutations(list(range(space.size))))
    return space, list(order)


@given(space_and_order())
@settings(max_examples=30, deadline=None)
def test_sigma_identity_holds_for_any_arrangement(data):
    """The closed-form ||nu||_1 equals the matrix pipeline, always."""
    space, order = data
    identity = sigma_cost_of_order(space, order)
    reordered = space.rearranged(order)
    matrices = sigma_norm1(code_variability(reordered, space.size, sigma_t=1.0))
    assert identity == matrices


@given(space_and_order())
@settings(max_examples=30, deadline=None)
def test_sigma_cost_bounded_below_by_gray_bound(data):
    from repro.codes.optimal import gray_sigma_lower_bound

    space, order = data
    assert sigma_cost_of_order(space, order) >= gray_sigma_lower_bound(space)


# -- stochastic baselines -------------------------------------------------------


@given(st.integers(1, 50), st.integers(1, 5000))
def test_random_code_fraction_is_probability(group, omega):
    frac = expected_addressable_fraction(group, omega)
    assert 0.0 <= frac <= 1.0


@given(st.integers(2, 50), st.integers(2, 5000))
def test_random_code_fraction_monotone_in_omega(group, omega):
    assert expected_addressable_fraction(group, omega + 1) >= (
        expected_addressable_fraction(group, omega)
    )


@given(st.integers(1, 24), st.floats(0.0, 1.0))
def test_collision_probability_is_probability(mesowires, p):
    c = signature_collision_probability(mesowires, p)
    assert 0.0 <= c <= 1.0


@given(st.integers(1, 24))
def test_fair_connections_minimise_collisions(mesowires):
    fair = signature_collision_probability(mesowires, 0.5)
    for p in (0.1, 0.3, 0.7, 0.9):
        assert fair <= signature_collision_probability(mesowires, p) + 1e-12


@given(st.integers(1, 30), st.integers(1, 16))
def test_random_contact_fraction_is_probability(group, mesowires):
    frac = random_contact_addressable_fraction(group, mesowires)
    assert 0.0 <= frac <= 1.0


# -- read-out physics ------------------------------------------------------------


@st.composite
def small_state_maps(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    return np.array(bits).reshape(rows, cols)


@given(small_state_maps())
@settings(max_examples=30, deadline=None)
def test_read_current_positive(states):
    model = ReadoutModel()
    current = model.read_current(states, 0, 0)
    assert current > 0


@given(small_state_maps())
@settings(max_examples=30, deadline=None)
def test_on_cell_reads_at_least_off_cell(states):
    """Flipping the selected cell ON never lowers the sensed current."""
    model = ReadoutModel()
    on = states.copy()
    on[0, 0] = True
    off = states.copy()
    off[0, 0] = False
    assert model.read_current(on, 0, 0) >= model.read_current(off, 0, 0)


@given(small_state_maps())
@settings(max_examples=20, deadline=None)
def test_grounding_never_reads_lower_than_isolated_cell(states):
    """With unselected lines grounded, the sensed current equals the
    selected cell's Ohm's-law current (no sneak additions/subtractions)."""
    model = ReadoutModel(scheme="ground")
    g = 1.0 / model.r_on if states[0, 0] else 1.0 / model.r_off
    assert model.read_current(states, 0, 0) == pytest.approx(model.v_read * g, rel=1e-6)
