"""MSPT fabrication substrate: doping matrices, fabrication complexity,
lithography rules.

Implements Sec. 4 of the paper (pattern / final-doping / step-doping
matrices, fabrication complexity) and the lithography design rules of
the contact groups.
"""

from repro.fabrication.complexity import (
    DOSE_RTOL,
    code_complexity,
    distinct_nonzero_count,
    fabrication_complexity,
    plan_complexity,
    step_complexities,
)
from repro.fabrication.doping import (
    DopingError,
    DopingPlan,
    accumulate_doses,
    default_digit_map,
    final_doping_matrix,
    step_doping_matrix,
    validate_pattern_matrix,
)
from repro.fabrication.lithography import (
    DEFAULT_LITHO_PITCH_NM,
    DEFAULT_NANOWIRE_PITCH_NM,
    MIN_CONTACT_WIDTH_FACTOR,
    LithographyRules,
)

__all__ = [
    "DEFAULT_LITHO_PITCH_NM",
    "DEFAULT_NANOWIRE_PITCH_NM",
    "DOSE_RTOL",
    "DopingError",
    "DopingPlan",
    "LithographyRules",
    "MIN_CONTACT_WIDTH_FACTOR",
    "accumulate_doses",
    "code_complexity",
    "default_digit_map",
    "distinct_nonzero_count",
    "fabrication_complexity",
    "final_doping_matrix",
    "plan_complexity",
    "step_complexities",
    "step_doping_matrix",
    "validate_pattern_matrix",
]
