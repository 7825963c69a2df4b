"""Platform-spec perturbation for the sweeps and ablation benches.

The paper's evaluation is a set of one-dimensional sweeps (code length,
code family, logic valence); our ablation benches additionally sweep the
calibrated model parameters (window margin, boundary gap, sigma_T, N).
The sweeps themselves run on the design-space evaluation pipeline
(:mod:`repro.exp`): design-point grids through :func:`repro.api.evaluate`,
generic function sweeps through :func:`repro.exp.pipeline.function_sweep`.
This module keeps the public name of :func:`spec_with`, which derives
the perturbed platform specs (the one override path of
:mod:`repro.crossbar.spec`).
"""

from __future__ import annotations

from repro.crossbar.spec import spec_with

__all__ = ["Record", "spec_with"]

Record = dict[str, object]
