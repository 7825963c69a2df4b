"""Scalar fabrication loops: event-by-event replay and spacer variation."""

from __future__ import annotations

import numpy as np

from repro.fabrication.process_flow import ProcessFlow, SpacerEvent
from repro.fabrication.variation import VariationError, sample_spacer_geometry


def replay_loop(flow: ProcessFlow) -> np.ndarray:
    """Event-by-event replay of ``flow`` into the final doping matrix."""
    doping = np.zeros((flow.plan.nanowires, flow.plan.regions))
    defined = 0
    for event in flow.events:
        if isinstance(event, SpacerEvent):
            defined = max(defined, event.wire + 1)
        else:
            for j in event.regions:
                doping[:defined, j] += event.dose
    return doping


def dose_counts_loop(flow: ProcessFlow) -> np.ndarray:
    """Event-by-event count of the doses each region received."""
    counts = np.zeros((flow.plan.nanowires, flow.plan.regions), dtype=int)
    defined = 0
    for event in flow.events:
        if isinstance(event, SpacerEvent):
            defined = max(defined, event.wire + 1)
        else:
            for j in event.regions:
                counts[:defined, j] += 1
    return counts


def estimate_position_sigma_loop(
    recipe, variation, nanowires: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-spacer position sigma, one geometry per iteration from ``rng``."""
    if samples < 2:
        raise VariationError("need at least two samples")
    centres = np.empty((samples, nanowires))
    for s in range(samples):
        centres[s] = sample_spacer_geometry(recipe, variation, nanowires, rng)[
            "centre_nm"
        ]
    return centres.std(axis=0, ddof=1)
