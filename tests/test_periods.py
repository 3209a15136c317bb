"""Unit tests for charging-period rollover."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.charging.schemes import MaxCharging
from repro.core import PostcardScheduler
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.net.generators import complete_topology, line_topology
from repro.sim import Simulation
from repro.traffic import PaperWorkload, TraceWorkload, TransferRequest


def _send(state, src, dst, volume, slot):
    request = TransferRequest(src, dst, volume, 1, release_slot=slot)
    state.commit(
        TransferSchedule([ScheduleEntry(request.request_id, src, dst, slot, volume)]),
        [request],
    )
    return request


class TestLedgerRanges:
    def test_samples_range(self, line3):
        from repro.charging import TrafficLedger

        ledger = TrafficLedger(line3, horizon=20)
        ledger.record(0, 1, 3, 5.0)
        ledger.record(0, 1, 12, 7.0)
        first = ledger.samples_range(0, 1, 0, 10)
        second = ledger.samples_range(0, 1, 10, 20)
        assert first[3] == 5.0 and first.sum() == 5.0
        assert second[2] == 7.0 and second.sum() == 7.0
        with pytest.raises(Exception):
            ledger.samples_range(0, 1, 5, 5)

    def test_peak_in_range(self, line3):
        from repro.charging import TrafficLedger

        ledger = TrafficLedger(line3, horizon=20)
        ledger.record(0, 1, 3, 5.0)
        ledger.record(0, 1, 12, 7.0)
        assert ledger.peak_in_range(0, 1, 0, 10) == 5.0
        assert ledger.peak_in_range(0, 1, 10, 20) == 7.0
        assert ledger.peak_in_range(0, 1, 4, 10) == 0.0

    def test_period_cost(self, line3):
        from repro.charging import TrafficLedger

        ledger = TrafficLedger(line3, horizon=20)
        ledger.record(0, 1, 3, 5.0)   # period 1 peak: 5
        ledger.record(0, 1, 12, 7.0)  # period 2 peak: 7
        assert ledger.period_cost(0, 10) == pytest.approx(5.0 * 10)
        assert ledger.period_cost(10, 20) == pytest.approx(7.0 * 10)


class TestStatePeriods:
    def test_paid_peaks_expire(self, line3):
        state = NetworkState(line3, horizon=40)
        _send(state, 0, 1, 8.0, slot=2)
        assert state.paid_headroom(0, 1, 5) == 8.0

        bill = state.start_new_period(10)
        assert bill == pytest.approx(8.0 * 10)
        assert state.banked_period_bills == [bill]
        # The old peak no longer grants free traffic.
        assert state.charged_volume(0, 1) == 0.0
        assert state.paid_headroom(0, 1, 12) == 0.0

    def test_in_flight_traffic_seeds_new_period(self, line3):
        state = NetworkState(line3, horizon=40)
        # Committed into slot 12 (beyond the upcoming boundary).
        _send(state, 0, 1, 6.0, slot=12)
        state.start_new_period(10)
        assert state.charged_volume(0, 1) == 6.0

    def test_boundary_must_advance(self, line3):
        state = NetworkState(line3, horizon=40)
        state.start_new_period(10)
        with pytest.raises(SchedulingError):
            state.start_new_period(10)


class TestSimulationPeriods:
    def test_validation(self, line3):
        scheduler = PostcardScheduler(line3, horizon=10)
        with pytest.raises(SimulationError):
            Simulation(scheduler, TraceWorkload([]), 5, slots_per_period=-1)

    def test_two_periods_billed_independently(self, line3):
        # One file per period on the same link; with rollover both
        # periods pay, without it the second would be free.
        requests = [
            TransferRequest(0, 1, 6.0, 2, release_slot=0),
            TransferRequest(0, 1, 6.0, 2, release_slot=5),
        ]
        scheduler = PostcardScheduler(line3, horizon=20)
        result = Simulation(
            scheduler, TraceWorkload(requests), num_slots=8, slots_per_period=5
        ).run()
        assert len(result.period_bills) == 2
        assert all(bill > 0 for bill in result.period_bills)
        assert result.total_bill == pytest.approx(sum(result.period_bills))

    def test_period_peak_arithmetic(self):
        """Ledger identity: on every link, the sum of per-period peaks
        is at least the whole-horizon peak (each period's peak is at
        most the global one, and the global peak lives in some
        period).  Note the *bills* are not one-sidedly ordered —
        rollover forfeits free-riding but also bills smaller peaks for
        shorter spans."""
        topo = complete_topology(4, capacity=40.0, seed=14)
        workload = PaperWorkload(topo, max_deadline=3, max_files=3, seed=6)
        requests = workload.all_requests(8)

        scheduler = PostcardScheduler(topo, horizon=20)
        Simulation(
            scheduler, TraceWorkload(requests), 8, slots_per_period=4
        ).run()
        ledger = scheduler.state.ledger
        for link in topo.links:
            global_peak = ledger.peak_in_range(link.src, link.dst, 0, 20)
            period_peaks = [
                ledger.peak_in_range(link.src, link.dst, start, start + 4)
                for start in range(0, 20, 4)
            ]
            assert max(period_peaks) == pytest.approx(global_peak)
            assert sum(period_peaks) >= global_peak - 1e-9

    def test_periods_and_faults_compose(self):
        """Outages and period rollover together: the audit still holds
        and dead link-slots carry nothing across both periods."""
        from repro.sim import FaultModel, Outage

        topo = complete_topology(4, capacity=40.0, seed=22)
        faults = FaultModel([Outage(0, 1, 2, 6)])
        scheduler = PostcardScheduler(topo, horizon=30, on_infeasible="drop")
        scheduler.state.fault_model = faults
        workload = PaperWorkload(topo, max_deadline=3, max_files=2, seed=7)
        result = Simulation(
            scheduler, workload, num_slots=8, slots_per_period=4
        ).run()
        assert result.max_lateness() == 0
        assert len(result.period_bills) == 2
        for slot in range(2, 6):
            assert scheduler.state.ledger.volume(0, 1, slot) == 0.0

    def test_scheduler_reacts_to_expired_headroom(self, line3):
        """After a boundary, a file that would have been free re-pays:
        the state's cost-per-slot rises again in period 2."""
        requests = [
            TransferRequest(0, 1, 8.0, 2, release_slot=0),
            TransferRequest(0, 1, 8.0, 2, release_slot=6),
        ]
        scheduler = PostcardScheduler(line3, horizon=30)
        Simulation(
            scheduler, TraceWorkload(requests), num_slots=8, slots_per_period=5
        ).run()
        # Period 2's own peak is 4 (8 GB over 2 slots), charged afresh.
        assert scheduler.state.current_cost_per_slot() == pytest.approx(4.0)

    def test_replanning_prices_a_new_period_from_its_own_start(self):
        """``postcard-replan`` reads the paid peaks from the current
        period's start: the previous period's 30 GB peak on (0, 1) is
        not free headroom after the boundary, so the 20 GB file spreads
        over its four slots (peak 5) instead of landing in one (peak
        20, priced as if 30 were already paid)."""
        from repro.core import ReplanningPostcardScheduler

        scheduler = ReplanningPostcardScheduler(
            line_topology(3, capacity=50.0), horizon=40
        )
        _send(scheduler.state, 0, 1, 30.0, slot=0)
        scheduler.state.start_new_period(10)
        scheduler.on_slot(10, [TransferRequest(0, 1, 20.0, 4, release_slot=10)])
        assert scheduler.last_objective == pytest.approx(5.0)
        for slot in range(11, 14):
            scheduler.on_slot(slot, [])
        ledger = scheduler.state.ledger
        assert [ledger.volume(0, 1, s) for s in range(10, 14)] == pytest.approx(
            [5.0] * 4
        )
        assert ledger.peak_in_range(0, 1, 10, 40) == pytest.approx(5.0)
