"""Nanowire decoder model: patterns, variability, addressing, geometry.

Implements the decoder design style of Sec. 3.3 and the abstract
formulation of Sec. 4, combined into the per-half-cave facade
:class:`~repro.decoder.decoder.HalfCaveDecoder`.
"""

from repro.decoder.addressing import (
    addresses_unique_wire,
    conducting_wires,
    expected_addressable,
    sampled_addressable_mask,
    wire_addressability,
)
from repro.decoder.contact_groups import (
    ContactGroupPlan,
    GroupError,
    geometric_survival_fraction,
    plan_contact_groups,
)
from repro.decoder.cave import FullCaveDecoder
from repro.decoder.decoder import HalfCaveDecoder
from repro.decoder.margins import MarginReport, margin_report
from repro.decoder.pattern import (
    address_of_nanowire,
    group_local_indices,
    pattern_matrix,
    pattern_uniqueness_within_groups,
)
from repro.decoder.stochastic import (
    BaselineComparison,
    StochasticError,
    compare_with_deterministic,
    expected_addressable_fraction,
    random_contact_addressable_fraction,
    required_code_space,
    signature_collision_probability,
    simulate_random_codes,
    simulate_random_contacts,
    unique_code_probability,
)
from repro.decoder.variability import (
    average_variability,
    code_variability,
    dose_count_matrix,
    nonzero_dose_mask,
    normalised_std_map,
    plan_variability,
    sigma_norm1,
    variability_matrix,
)

__all__ = [
    "BaselineComparison",
    "ContactGroupPlan",
    "FullCaveDecoder",
    "GroupError",
    "HalfCaveDecoder",
    "MarginReport",
    "StochasticError",
    "compare_with_deterministic",
    "expected_addressable_fraction",
    "margin_report",
    "random_contact_addressable_fraction",
    "required_code_space",
    "signature_collision_probability",
    "simulate_random_codes",
    "simulate_random_contacts",
    "unique_code_probability",
    "wire_addressability",
    "address_of_nanowire",
    "addresses_unique_wire",
    "average_variability",
    "code_variability",
    "conducting_wires",
    "dose_count_matrix",
    "expected_addressable",
    "geometric_survival_fraction",
    "group_local_indices",
    "nonzero_dose_mask",
    "normalised_std_map",
    "pattern_matrix",
    "pattern_uniqueness_within_groups",
    "plan_contact_groups",
    "plan_variability",
    "sampled_addressable_mask",
    "sigma_norm1",
    "variability_matrix",
]
