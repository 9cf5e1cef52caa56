"""Tests for the search-trace instrumentation."""

import pytest

from repro.core.dpp import DPPOptimizer
from repro.core.dpap import DPAPEBOptimizer
from repro.core.status import Status
from repro.core.planspace import PlanSpaceRecorder, SearchEvent
from repro.estimation.estimator import ExactEstimator


@pytest.fixture
def traced_run(small_document, running_example_pattern):
    trace = PlanSpaceRecorder()
    optimizer = DPPOptimizer(planspace=trace)
    result = optimizer.optimize(running_example_pattern,
                                ExactEstimator(small_document))
    return trace, result


class TestSearchTrace:
    def test_start_status_is_zero(self, traced_run,
                                  running_example_pattern):
        trace, __ = traced_run
        first = trace.events[0]
        assert first.kind == "generate"
        assert first.status_id == 0
        assert first.detail == "start"
        start = Status.start(running_example_pattern)
        assert trace.status_id(start) == 0

    def test_generation_order_numbering(self, traced_run):
        trace, __ = traced_run
        generated = [event.status_id
                     for event in trace.events_of_kind("generate")]
        assert generated == sorted(generated)
        assert generated[0] == 0

    def test_counts_match_report(self, traced_run, small_document,
                                 running_example_pattern):
        trace, result = traced_run
        report = result.report
        assert len(trace.events_of_kind("generate")) + \
            len([e for e in trace.events_of_kind("final")
                 ]) >= report.statuses_generated - 1
        assert len(trace.events_of_kind("expand")) == \
            report.statuses_expanded
        assert len(trace.events_of_kind("deadend")) == \
            report.deadends_avoided

    def test_final_event_has_optimal_cost(self, traced_run):
        trace, result = traced_run
        finals = trace.events_of_kind("final")
        assert finals
        assert min(event.cost for event in finals) == pytest.approx(
            result.estimated_cost)

    def test_narrative_renders(self, traced_run):
        trace, __ = traced_run
        text = trace.narrative(limit=5)
        assert "generate status0" in text.replace("  ", " ") or \
            "generate" in text
        assert "more events" in text

    def test_expansion_follows_priority(self, traced_run):
        """The first expansion must be the start status."""
        trace, __ = traced_run
        first_expand = trace.events_of_kind("expand")[0]
        assert first_expand.status_id == 0

    def test_dpap_inherits_tracing(self, small_document,
                                   running_example_pattern):
        trace = PlanSpaceRecorder()
        optimizer = DPAPEBOptimizer(expansion_bound=2, planspace=trace)
        optimizer.optimize(running_example_pattern,
                           ExactEstimator(small_document))
        assert trace.events_of_kind("expand")

    def test_event_str(self):
        event = SearchEvent("expand", 3, 12.5, "why")
        assert "status3" in str(event)
        assert "why" in str(event)


class TestOneRecorder:
    """The walk rides on the plan-space recorder, under its caps."""

    def test_walk_and_plan_space_come_from_one_optimize(self, traced_run):
        trace, result = traced_run
        assert trace.winner is result.plan and trace.candidates
        assert len(trace.events_of_kind("deadend")) \
            == trace.prunings.get("infeasible", 0)
        # a "prune" step is a generated status killed off the queue;
        # candidates cut before generation are counted, not narrated
        assert len(trace.events_of_kind("prune")) \
            <= trace.prunings.get("cost-bound", 0)

    def test_events_share_the_candidate_cap(self, monkeypatch,
                                            small_document,
                                            running_example_pattern):
        from repro.core import planspace

        full = PlanSpaceRecorder()
        DPPOptimizer(planspace=full).optimize(
            running_example_pattern, ExactEstimator(small_document))
        monkeypatch.setattr(planspace, "MAX_CANDIDATES", 7)
        capped = PlanSpaceRecorder()
        DPPOptimizer(planspace=capped).optimize(
            running_example_pattern, ExactEstimator(small_document))
        assert capped.events == full.events[:7]
        assert capped.events_dropped == len(full.events) - 7
        assert f"... {len(full.events) - 7} more events" \
            in capped.narrative()
        assert len(capped.candidates) == 7

    def test_a_recorder_is_reset_per_optimize(self, small_document,
                                              running_example_pattern):
        from repro.core.fp import FPOptimizer

        recorder = PlanSpaceRecorder()
        estimator = ExactEstimator(small_document)
        DPPOptimizer(planspace=recorder).optimize(
            running_example_pattern, estimator)
        assert recorder.events and recorder.status_count()
        FPOptimizer(planspace=recorder).optimize(
            running_example_pattern, estimator)
        # FP walks no statuses: empty is how callers tell
        assert recorder.events == [] and recorder.status_count() == 0
