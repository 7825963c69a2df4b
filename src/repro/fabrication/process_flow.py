"""Decoder-aware MSPT process flow (paper Sec. 3.2, Fig. 4).

The decoder cannot be patterned after the array exists (the nanowires are
sub-lithographic), so each nanowire is patterned *while* it is defined:
after every spacer-definition iteration, a photolithography + implantation
pass dopes selected regions of the just-defined nanowire — and,
unavoidably, the same regions of every nanowire defined before it.

This module turns a :class:`~repro.fabrication.doping.DopingPlan` into an
explicit event list:

* one :class:`SpacerEvent` per nanowire (the Fig. 2 loop iteration);
* one :class:`DopingEvent` per *distinct non-zero dose* in the step's row
  of S — each distinct dose needs its own mask and implant, which is
  exactly the paper's complexity measure ``phi_i`` (Def. 4).

Replaying the events reproduces the final doping matrix, which is the
executable form of Proposition 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fabrication.complexity import DOSE_RTOL, fabrication_complexity
from repro.fabrication.doping import DopingPlan


@dataclass(frozen=True)
class SpacerEvent:
    """Definition of one poly-Si nanowire (deposition + anisotropic etch)."""

    wire: int


@dataclass(frozen=True)
class DopingEvent:
    """One lithography + implantation pass.

    Parameters
    ----------
    step:
        Patterning procedure index (= wire just defined).
    dose:
        Signed doping dose [cm^-3]; negative = opposite dopant species.
    regions:
        Doping-region indices exposed by this mask.
    """

    step: int
    dose: float
    regions: tuple[int, ...]


@dataclass
class ProcessFlow:
    """Executable event list of the decoder-aware MSPT flow."""

    plan: DopingPlan
    events: list[SpacerEvent | DopingEvent] = field(default_factory=list)

    @classmethod
    def from_plan(cls, plan: DopingPlan, rtol: float = DOSE_RTOL) -> "ProcessFlow":
        """Compile a doping plan into spacer + doping events."""
        events: list[SpacerEvent | DopingEvent] = []
        steps = plan.steps
        scale = float(np.max(np.abs(steps))) if steps.size else 0.0
        for i in range(plan.nanowires):
            events.append(SpacerEvent(wire=i))
            row = steps[i]
            nonzero = [
                (j, row[j])
                for j in range(plan.regions)
                if scale > 0 and abs(row[j]) > rtol * scale
            ]
            grouped: dict[float, list[int]] = {}
            for j, dose in nonzero:
                for known in grouped:
                    if abs(known - dose) <= rtol * scale:
                        grouped[known].append(j)
                        break
                else:
                    grouped[dose] = [j]
            for dose, regions in grouped.items():
                events.append(
                    DopingEvent(step=i, dose=float(dose), regions=tuple(regions))
                )
        return cls(plan=plan, events=events)

    @property
    def doping_event_count(self) -> int:
        """Number of lithography/doping passes — equals Phi (Def. 4)."""
        return sum(1 for e in self.events if isinstance(e, DopingEvent))

    @property
    def spacer_event_count(self) -> int:
        """Number of spacer-definition iterations — equals N."""
        return sum(1 for e in self.events if isinstance(e, SpacerEvent))

    def _event_deposits(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step dose and count deposits of the doping events.

        Row ``d - 1`` holds everything implanted while ``d`` nanowires
        were defined; since such a pass hits wires ``0..d-1``, wire
        ``i``'s total is the sum of rows ``i..N-1`` — one reverse
        cumulative sum instead of a wire-by-wire replay.
        """
        doses = np.zeros((self.plan.nanowires, self.plan.regions))
        counts = np.zeros((self.plan.nanowires, self.plan.regions), dtype=int)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        defined = 0
        for event in self.events:
            if isinstance(event, SpacerEvent):
                defined = max(defined, event.wire + 1)
            elif defined:
                rows.extend([defined - 1] * len(event.regions))
                cols.extend(event.regions)
                vals.extend([event.dose] * len(event.regions))
        if rows:
            np.add.at(doses, (rows, cols), vals)
            np.add.at(counts, (rows, cols), 1)
        return doses, counts

    def replay(self) -> np.ndarray:
        """Execute the flow, accumulating doses onto defined nanowires.

        Each doping event's dose lands on the exposed regions of *every*
        nanowire defined so far (the MSPT accumulation of Prop. 2).
        Returns the resulting final doping matrix.

        The events fold into per-step deposit rows that are
        reverse-cumulative-summed — no per-wire Python loop.  The
        event-by-event replay lives with the test oracles; the two agree
        to floating-point rounding (summation order differs).
        """
        doses, _ = self._event_deposits()
        return np.cumsum(doses[::-1], axis=0)[::-1]

    def verify(self, rtol: float = 1e-6) -> bool:
        """Check that replaying the events reproduces the planned doping."""
        return bool(np.allclose(self.replay(), self.plan.final, rtol=rtol))

    def dose_counts(self) -> np.ndarray:
        """How many doses each region of each nanowire received.

        This is the nu matrix of Def. 5, obtained operationally from the
        event list rather than from the formula — the two are compared in
        the test suite.  Counts are integers, so the event-by-event
        oracle matches exactly.
        """
        _, deposits = self._event_deposits()
        return np.cumsum(deposits[::-1], axis=0)[::-1]

    def summary(self) -> dict:
        """Headline step accounting of the flow."""
        return {
            "nanowires": self.plan.nanowires,
            "regions": self.plan.regions,
            "spacer_steps": self.spacer_event_count,
            "doping_steps": self.doping_event_count,
            "phi_check": fabrication_complexity(self.plan.steps),
        }
