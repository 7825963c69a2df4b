"""Design-space evaluation pipeline (parallel, cached, columnar).

The analytic counterpart of :mod:`repro.sim`: where the sim engine
batches stochastic *trials*, this package batches analytic *design
points*.  Every sweep consumer in the repo — figure generators, family
sweeps, the optimizer, and the ``repro sweep`` CLI — evaluates grids of
:class:`DesignPoint` through :func:`run_sweep`, with per-process
memoized construction (:mod:`repro.exp.cache`) and a columnar
:class:`SweepResult`.  See README.md ("Design-space evaluation
pipeline").
"""

from repro.crossbar.spec import SPEC_OVERRIDE_KEYS, validate_override_keys
from repro.exp.cache import (
    cache_stats,
    cached_spec,
    clear_caches,
)
from repro.exp.designpoint import (
    DesignPoint,
    design_grid,
)
from repro.exp.pipeline import (
    EVALUATORS,
    SweepParams,
    default_jobs,
    evaluate_point,
    function_sweep,
    register_evaluator,
    resolve_metrics,
    run_sweep,
)
from repro.exp.results import SweepResult

__all__ = [
    "DesignPoint",
    "EVALUATORS",
    "SPEC_OVERRIDE_KEYS",
    "SweepParams",
    "SweepResult",
    "cache_stats",
    "cached_spec",
    "clear_caches",
    "default_jobs",
    "design_grid",
    "evaluate_point",
    "function_sweep",
    "register_evaluator",
    "resolve_metrics",
    "run_sweep",
    "validate_override_keys",
]
