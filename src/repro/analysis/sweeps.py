"""Platform-spec perturbation for the sweeps and ablation benches.

The paper's evaluation is a set of one-dimensional sweeps (code length,
code family, logic valence); our ablation benches additionally sweep the
calibrated model parameters (window margin, boundary gap, sigma_T, N).
The sweeps themselves run on the design-space evaluation pipeline
(:mod:`repro.exp`): design-point grids through :func:`repro.api.evaluate`,
generic function sweeps through :func:`repro.exp.pipeline.function_sweep`.
This module keeps :func:`spec_with`, which derives the perturbed
platform specs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.crossbar.spec import CrossbarSpec

Record = dict[str, object]


def spec_with(
    base: CrossbarSpec | None = None,
    window_margin: float | None = None,
    sigma_t: float | None = None,
    nanowires: int | None = None,
    contact_gap_factor: float | None = None,
    alignment_tolerance_nm: float | None = None,
) -> CrossbarSpec:
    """Derive a platform spec with selected parameters overridden.

    The helper the ablation benches use to perturb one model knob at a
    time while keeping everything else at the calibrated defaults.
    """
    base = base or CrossbarSpec()
    rule_changes = {
        k: v
        for k, v in (
            ("contact_gap_factor", contact_gap_factor),
            ("alignment_tolerance_nm", alignment_tolerance_nm),
        )
        if v is not None
    }
    spec_changes = {
        k: v
        for k, v in (
            ("window_margin", window_margin),
            ("sigma_t", sigma_t),
            ("nanowires_per_half_cave", nanowires),
        )
        if v is not None
    }
    if rule_changes:
        spec_changes["rules"] = replace(base.rules, **rule_changes)
    return replace(base, **spec_changes) if spec_changes else base
