"""FAB — fabrication-realism extensions: process variation and implants.

Two closures of the loop between the statistical models and the physical
flow:

* deposition-thickness jitter -> spacer-position random walk -> the
  alignment tolerance used by the contact-group yield model (which
  gives that tolerance a physical justification);
* the step-dose matrix -> per-event implanter settings (species, energy,
  split passes) that provably deliver the planned concentrations.
"""

import numpy as np

from repro.analysis.report import render_table
from repro.codes import make_code
from repro.fabrication.doping import DopingPlan
from repro.fabrication.implant import ImplantPlanner
from repro.fabrication.variation import ProcessVariation


def run_variation_study():
    out = []
    for sigma in (0.1, 0.3, 0.5, 1.0):
        variation = ProcessVariation(sigma, sigma)
        out.append(
            (
                sigma,
                variation.pitch_sigma_nm,
                variation.worst_position_sigma_nm(20),
                variation.suggested_alignment_tolerance_nm(20),
            )
        )
    return out


def test_variation_to_tolerance(benchmark, emit):
    rows = benchmark(run_variation_study)
    emit(
        "fabrication_variation",
        "Deposition control -> contact alignment tolerance (N = 20, 3 sigma)\n"
        + render_table(
            ["layer sigma nm", "pitch sigma nm", "worst pos sigma nm",
             "suggested tol nm"],
            [[f"{a:.1f}", f"{b:.2f}", f"{c:.2f}", f"{d:.1f}"] for a, b, c, d in rows],
        ),
    )
    # 0.3 nm/layer control justifies the calibrated 5 nm tolerance
    tol_at_03 = dict((r[0], r[3]) for r in rows)[0.3]
    assert 4.0 < tol_at_03 < 8.0
    # tolerance grows with process sigma
    tols = [r[3] for r in rows]
    assert all(b > a for a, b in zip(tols, tols[1:]))


def run_implant_plan():
    plan = DopingPlan.from_code(make_code("BGC", 2, 10), 20)
    planner = ImplantPlanner()
    settings = planner.plan(plan)
    delivered = [planner.delivered_concentration(s) for s in settings]
    return plan, planner, settings, delivered


def test_implant_planning(benchmark, emit):
    plan, planner, settings, delivered = benchmark(run_implant_plan)

    species = {}
    for s in settings:
        species[s.species] = species.get(s.species, 0) + 1
    doses = np.array([s.total_dose_cm2 for s in settings])
    rows = [
        ["doping events", len(settings)],
        ["boron (p-type) events", species.get("boron", 0)],
        ["phosphorus (n-type) events", species.get("phosphorus", 0)],
        ["median areal dose [cm^-2]", f"{np.median(doses):.2e}"],
        ["max passes per event", max(s.passes for s in settings)],
        ["beam energy [keV]", f"{settings[0].energy_kev:.1f}"],
    ]
    emit(
        "fabrication_implants",
        "Implant plan for BGC/10, N = 20 (paper Fig. 4 steps, quantified)\n"
        + render_table(["figure", "value"], rows),
    )

    # every event needs both species somewhere (counter-doping happens)
    assert species.get("boron", 0) > 0
    assert species.get("phosphorus", 0) > 0
    # the settings reproduce the planned doses
    from repro.fabrication.process_flow import DopingEvent, ProcessFlow

    events = [
        e for e in ProcessFlow.from_plan(plan).events
        if isinstance(e, DopingEvent)
    ]
    assert np.allclose(delivered, [e.dose for e in events])
