"""Core layer: the paper's contribution as a user-facing API.

:class:`~repro.core.design.DecoderDesign` evaluates one code choice on
the platform; :func:`~repro.core.optimizer.optimize_design` explores the
design space per objective; :mod:`~repro.core.theorems` makes the
paper's propositions executable.
"""

from repro.core.design import DecoderDesign
from repro.core.optimizer import (
    DEFAULT_LENGTHS,
    OBJECTIVES,
    ExplorationPoint,
    ExplorationResult,
    explore_designs,
    optimize_design,
)
from repro.core.theorems import (
    check_all,
    check_arranged_hot_optimality,
    check_prop1_bijection,
    check_prop2_accumulation,
    check_prop4_exact,
    check_prop4_gray_minimises_variability,
    check_prop5_exact,
    check_prop5_gray_minimises_complexity,
)

__all__ = [
    "DEFAULT_LENGTHS",
    "DecoderDesign",
    "ExplorationPoint",
    "ExplorationResult",
    "OBJECTIVES",
    "check_all",
    "check_arranged_hot_optimality",
    "check_prop1_bijection",
    "check_prop2_accumulation",
    "check_prop4_exact",
    "check_prop4_gray_minimises_variability",
    "check_prop5_exact",
    "check_prop5_gray_minimises_complexity",
    "explore_designs",
    "optimize_design",
]
