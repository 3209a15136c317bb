"""Unit tests for the percentile-aware scheduler extension."""

import pytest

from repro.errors import SchedulingError
from repro.charging import PercentileCharging
from repro.core import PostcardScheduler
from repro.extensions import PercentileAwareScheduler
from repro.net.generators import complete_topology, line_topology
from repro.sim import Simulation
from repro.traffic import PaperWorkload, TransferRequest


def test_parameters_validated(line3):
    with pytest.raises(SchedulingError):
        PercentileAwareScheduler(line3, 10, q=0)
    with pytest.raises(SchedulingError):
        PercentileAwareScheduler(line3, 10, q=101)
    with pytest.raises(SchedulingError):
        PercentileAwareScheduler(line3, 10, q=95, on_infeasible="pray")


def test_q100_has_no_budget(line3):
    scheduler = PercentileAwareScheduler(line3, horizon=10, q=100)
    assert scheduler.burst_budget == 0
    request = TransferRequest(0, 1, 8.0, 4, release_slot=0)
    scheduler.on_slot(0, [request])
    reference = PostcardScheduler(line3, horizon=10)
    reference.on_slot(0, [TransferRequest(0, 1, 8.0, 4, release_slot=0)])
    assert scheduler.state.current_cost_per_slot() == pytest.approx(
        reference.state.current_cost_per_slot()
    )


def test_budget_size(line3):
    scheduler = PercentileAwareScheduler(line3, horizon=100, q=95)
    assert scheduler.burst_budget == 5
    scheduler90 = PercentileAwareScheduler(line3, horizon=100, q=90)
    assert scheduler90.burst_budget == 10


def test_burst_slot_is_amnestied(line3):
    """One big file, generous deadline: the q=90 scheduler bursts it
    into amnestied slots instead of spreading, and its q-percentile
    bill beats the standard scheduler's."""
    q = 90.0
    horizon = 40
    request = TransferRequest(0, 1, 40.0, 8, release_slot=0)

    aware = PercentileAwareScheduler(line3, horizon=horizon, q=q)
    aware.on_slot(0, [request])

    standard = PostcardScheduler(line3, horizon=horizon)
    standard.on_slot(0, [TransferRequest(0, 1, 40.0, 8, release_slot=0)])

    bill_aware = aware.state.ledger.cost_per_slot(PercentileCharging(q))
    bill_standard = standard.state.ledger.cost_per_slot(PercentileCharging(q))
    assert bill_aware <= bill_standard + 1e-6
    # It used at least one amnesty.
    assert any(slots for slots in aware.amnesty.values())


def test_budget_never_exceeded(line3):
    scheduler = PercentileAwareScheduler(line3, horizon=20, q=90)
    for slot in range(4):
        request = TransferRequest(0, 1, 9.0, 2, release_slot=slot)
        scheduler.on_slot(slot, [request])
    for key, slots in scheduler.amnesty.items():
        assert len(slots) <= scheduler.burst_budget


def test_effective_charged_volume_ignores_amnesty(line3):
    scheduler = PercentileAwareScheduler(line3, horizon=30, q=90)
    request = TransferRequest(0, 1, 30.0, 3, release_slot=0)
    scheduler.on_slot(0, [request])
    raw_peak = scheduler.state.ledger.peak_volume(0, 1)
    effective = scheduler.effective_charged_volume(0, 1)
    assert effective <= raw_peak


def test_simulation_run_and_audit():
    topo = complete_topology(4, capacity=30.0, seed=12)
    scheduler = PercentileAwareScheduler(
        topo, horizon=30, q=90, on_infeasible="drop"
    )
    workload = PaperWorkload(topo, max_deadline=4, max_files=3, seed=3)
    result = Simulation(scheduler, workload, num_slots=6).run()
    assert result.max_lateness() == 0
    # The q-bill is never above the max bill.
    assert scheduler.state.ledger.cost_per_slot(PercentileCharging(90)) <= (
        scheduler.state.ledger.cost_per_slot() + 1e-9
    )


def test_planning_spends_no_burst_budget_until_commit():
    """Shedding probes solve with amnesty of their own; only the grants of
    the solve the plan returns land, and only when the plan is committed."""
    from tests.test_slot_contract import HORIZON, SLOT_1, TOPOLOGY, WARM

    scheduler = PercentileAwareScheduler(TOPOLOGY, HORIZON, q=90, on_infeasible="drop")
    scheduler.on_slot(0, WARM)

    def granted():
        return {key: set(slots) for key, slots in scheduler.amnesty.items() if slots}

    before = granted()
    plan = scheduler.plan_slot(1, SLOT_1)
    assert plan.rejected  # the slot shed: its probes solved and were dropped
    assert granted() == before
    scheduler.commit_plan(plan)
    expected = {key: before.get(key, set()) | plan.grants.get(key, set())
                for key in set(before) | set(plan.grants)}
    assert granted() == expected
