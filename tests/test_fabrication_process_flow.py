"""Unit tests for repro.fabrication.process_flow."""

import numpy as np
import pytest

from repro.codes import GrayCode, HotCode, TreeCode, make_code
from repro.decoder.variability import dose_count_matrix
from repro.fabrication.doping import DopingPlan
from repro.fabrication.process_flow import DopingEvent, ProcessFlow, SpacerEvent
from tests.oracles.fabrication import dose_counts_loop, replay_loop


def flow_for(space, nanowires):
    return ProcessFlow.from_plan(DopingPlan.from_code(space, nanowires))


class TestEventCompilation:
    def test_one_spacer_event_per_nanowire(self):
        flow = flow_for(GrayCode(2, 3), 8)
        assert flow.spacer_event_count == 8

    def test_doping_events_equal_phi(self):
        """Each distinct dose is one litho+implant pass — Def. 4 made real."""
        for space in (TreeCode(2, 3), GrayCode(3, 2), HotCode(2, 3)):
            flow = flow_for(space, 10)
            assert flow.doping_event_count == flow.summary()["phi_check"]

    def test_events_interleaved_in_definition_order(self):
        flow = flow_for(GrayCode(2, 2), 4)
        wire = -1
        for event in flow.events:
            if isinstance(event, SpacerEvent):
                assert event.wire == wire + 1
                wire = event.wire
            else:
                assert event.step == wire  # doping follows its spacer

    def test_doping_event_regions_grouped_by_dose(self):
        flow = flow_for(GrayCode(2, 3), 8)
        for event in flow.events:
            if isinstance(event, DopingEvent):
                assert len(event.regions) >= 1
                assert event.dose != 0.0


class TestReplay:
    def test_replay_reproduces_plan(self):
        for space in (TreeCode(2, 3), GrayCode(3, 2), HotCode(2, 2)):
            flow = flow_for(space, 9)
            assert flow.verify()

    def test_replay_with_paper_example(self, paper_map, example1_pattern):
        plan = DopingPlan.from_pattern(example1_pattern, paper_map)
        flow = ProcessFlow.from_plan(plan)
        assert np.allclose(flow.replay(), plan.final)

    def test_dose_counts_match_def5_nu(self):
        """Operational nu (event replay) equals the Def. 5 formula."""
        for space in (TreeCode(2, 3), GrayCode(2, 4), HotCode(2, 3)):
            plan = DopingPlan.from_code(space, 12)
            flow = ProcessFlow.from_plan(plan)
            assert np.array_equal(flow.dose_counts(), dose_count_matrix(plan.steps))

    def test_summary_fields(self):
        flow = flow_for(make_code("BGC", 2, 8), 10)
        s = flow.summary()
        assert s["nanowires"] == 10
        assert s["regions"] == 8
        assert s["spacer_steps"] == 10
        assert s["doping_steps"] == s["phi_check"]


class TestBatchedReplay:
    """The cumulative-mask replay against the event-by-event reference."""

    def test_replay_matches_loop_reference(self):
        for space in (TreeCode(2, 3), GrayCode(3, 2), HotCode(2, 2)):
            flow = flow_for(space, 9)
            assert np.allclose(flow.replay(), replay_loop(flow))

    def test_dose_counts_exactly_match_loop_reference(self):
        """Counts are integers: the two formulations agree exactly."""
        for space in (TreeCode(2, 4), GrayCode(2, 4), HotCode(2, 3)):
            flow = flow_for(space, 12)
            batched = flow.dose_counts()
            loop = dose_counts_loop(flow)
            assert batched.dtype == loop.dtype
            assert np.array_equal(batched, loop)

    def test_replay_with_paper_example_both_methods(
        self, paper_map, example1_pattern
    ):
        plan = DopingPlan.from_pattern(example1_pattern, paper_map)
        flow = ProcessFlow.from_plan(plan)
        assert np.allclose(flow.replay(), plan.final)
        assert np.allclose(replay_loop(flow), plan.final)

    def test_unknown_method_rejected(self):
        # the event-by-event loops are test oracles now, not a method knob
        flow = flow_for(GrayCode(2, 3), 6)
        for call in (flow.replay, flow.dose_counts):
            with pytest.raises(TypeError):
                call(method="loop")
