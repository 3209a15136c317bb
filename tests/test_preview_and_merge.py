"""Unit tests for the preview_cost oracle and MergedWorkload."""

import pytest

from repro.errors import WorkloadError
from repro.core import build_postcard_model
from repro.core.state import NetworkState
from repro.traffic import (
    MergedWorkload,
    PoissonWorkload,
    TraceWorkload,
    TransferRequest,
)
from tests.schedule_reference import preview_cost


class TestPreviewCost:
    def test_matches_commit(self, line3):
        state = NetworkState(line3, horizon=20)
        request = TransferRequest(0, 1, 8.0, 2, release_slot=0)
        built = build_postcard_model(state, [request])
        schedule, solution = built.solve()

        previewed = preview_cost(state, schedule)
        assert previewed == pytest.approx(solution.objective)
        assert state.current_cost_per_slot() == 0.0  # nothing committed

        state.commit(schedule, [request])
        assert state.current_cost_per_slot() == pytest.approx(previewed)

    def test_free_riding_previewed_as_free(self, line3):
        from repro.core.schedule import ScheduleEntry, TransferSchedule

        state = NetworkState(line3, horizon=20)
        r0 = TransferRequest(0, 1, 8.0, 1, release_slot=0)
        state.commit(
            TransferSchedule([ScheduleEntry(r0.request_id, 0, 1, 0, 8.0)]), [r0]
        )
        cost_before = state.current_cost_per_slot()
        # A later, smaller transfer rides the paid peak.
        r1 = TransferRequest(0, 1, 5.0, 1, release_slot=5)
        trial = TransferSchedule([ScheduleEntry(r1.request_id, 0, 1, 5, 5.0)])
        assert preview_cost(state, trial) == pytest.approx(cost_before)

    def test_empty_schedule_is_status_quo(self, line3):
        from repro.core.schedule import TransferSchedule

        state = NetworkState(line3, horizon=20)
        assert preview_cost(state, TransferSchedule()) == pytest.approx(
            state.current_cost_per_slot()
        )


class TestMergedWorkload:
    def test_needs_components(self):
        with pytest.raises(WorkloadError):
            MergedWorkload([])

    def test_concatenates_per_slot(self):
        a = TraceWorkload([TransferRequest(0, 1, 1.0, 2, release_slot=0)])
        b = TraceWorkload(
            [
                TransferRequest(1, 2, 2.0, 2, release_slot=0),
                TransferRequest(2, 3, 3.0, 2, release_slot=1),
            ]
        )
        merged = MergedWorkload([a, b])
        assert len(merged.requests_at(0)) == 2
        assert len(merged.requests_at(1)) == 1
        assert len(merged.all_requests(2)) == 3

    def test_mixture_runs_through_simulator(self, small_complete):
        from repro.core import PostcardScheduler
        from repro.sim import Simulation
        from repro.traffic import FlashCrowdWorkload

        merged = MergedWorkload(
            [
                PoissonWorkload(small_complete, max_deadline=3, rate=1.0, seed=1),
                FlashCrowdWorkload(
                    small_complete, max_deadline=3, base_rate=0.0,
                    burst_probability=0.5, burst_files=3,
                    min_size=5.0, max_size=15.0, seed=2,
                ),
            ]
        )
        scheduler = PostcardScheduler(small_complete, horizon=20, on_infeasible="drop")
        result = Simulation(scheduler, merged, num_slots=5).run()
        assert result.max_lateness() == 0
        assert result.total_requests > 0
