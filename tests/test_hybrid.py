"""Tests for the hybrid fast-lane/LP scheduler (PR 4).

Covers the two escalation triggers (rejection, utilization pressure),
the shared-state contract between the lanes, the simulation engine's
lane-split reporting, and a cost regression pin: on the default 10-DC
scenario the hybrid must stay within a fixed factor of the Postcard LP
(and the pure fast lane within a looser one).
"""

import threading

import pytest

import repro.obs as obs
from repro.errors import InfeasibleError, SchedulingError, SolverError
from repro.core import PostcardScheduler
from repro.heuristic import FastLaneScheduler, HybridScheduler
from repro.net.generators import complete_topology
from repro.registry import make_scheduler
from repro.sim.engine import Simulation
from repro.net.topology import Datacenter, Link, Topology
from repro.traffic.spec import TransferRequest
from repro.traffic.workload import PaperWorkload
from tests.obs_events import Events


def two_node_topology(capacity=10.0):
    return Topology(
        [Datacenter(0), Datacenter(1)],
        [
            Link(0, 1, capacity=capacity, price=1.0),
            Link(1, 0, capacity=capacity, price=1.0),
        ],
    )


def hybrid(topo, escalate_utilization=None, **kwargs):
    """A hybrid on ``topo`` whose threshold, when given, is set per instance."""
    scheduler = HybridScheduler(topo, horizon=20, **kwargs)
    if escalate_utilization is not None:
        scheduler.escalate_utilization = escalate_utilization
    return scheduler


# -- escalation triggers --------------------------------------------------


def test_relaxed_slot_stays_in_fast_lane():
    topo = two_node_topology(capacity=10.0)
    scheduler = HybridScheduler(topo, horizon=20)
    # 2 GB over 4 slots: 20% peak utilization, no rejection.
    scheduler.on_slot(0, [TransferRequest(0, 1, 2.0, 4, release_slot=0)])
    assert scheduler.fast_slots == 1
    assert scheduler.escalations == 0


def test_utilization_pressure_escalates():
    topo = two_node_topology(capacity=10.0)
    scheduler = hybrid(topo)
    assert scheduler.escalate_utilization == 0.9
    # 9.5 GB in a 1-slot window: 95% utilization on the planned cell.
    scheduler.on_slot(0, [TransferRequest(0, 1, 9.5, 1, release_slot=0)])
    assert scheduler.escalations == 1
    assert scheduler.fast_slots == 0
    # The LP lane committed it: delivered on time, nothing rejected.
    assert len(scheduler.state.completions) == 1
    assert not scheduler.state.rejected


def test_high_threshold_disables_pressure_trigger():
    topo = two_node_topology(capacity=10.0)
    scheduler = hybrid(topo, escalate_utilization=2.0)
    scheduler.on_slot(0, [TransferRequest(0, 1, 9.5, 1, release_slot=0)])
    assert scheduler.escalations == 0
    assert scheduler.fast_slots == 1


def test_fastlane_rejection_escalates():
    topo = two_node_topology(capacity=10.0)
    # 25 GB in a 2-slot window overflows the 10 GB/slot link: the fast
    # lane cannot admit it, so the slot escalates to the LP regardless
    # of the (disabled) utilization trigger.  The LP cannot fit it
    # either, and the drop policy records the rejection.
    scheduler = hybrid(topo, escalate_utilization=2.0, on_infeasible="drop")
    scheduler.on_slot(0, [TransferRequest(0, 1, 25.0, 2, release_slot=0)])
    assert scheduler.escalations == 1
    assert scheduler.fast_slots == 0
    assert len(scheduler.state.rejected) == 1


# -- shared state ---------------------------------------------------------


def test_lanes_share_one_ledger():
    topo = two_node_topology(capacity=10.0)
    scheduler = hybrid(topo, escalate_utilization=0.5)
    assert scheduler.state is scheduler.fast_lane.state
    assert scheduler.state is scheduler.lp_lane.state

    # Fast-lane slot (40% utilization), then a pressured slot (ALAP
    # stacks 5 GB on the 4 GB already committed at slot 1 -> 90%): the
    # escalated LP must see, and schedule around, the fast lane's
    # committed traffic.
    scheduler.on_slot(0, [TransferRequest(0, 1, 4.0, 2, release_slot=0)])
    assert scheduler.fast_slots == 1
    scheduler.on_slot(1, [TransferRequest(0, 1, 5.0, 1, release_slot=1)])
    assert scheduler.escalations == 1
    assert len(scheduler.state.completions) == 2
    # One bill covering both lanes' traffic.
    assert scheduler.state.ledger.total_volume() == pytest.approx(9.0)


def test_empty_slot_is_free():
    scheduler = HybridScheduler(two_node_topology(), horizon=10)
    assert not scheduler.on_slot(0, [])
    assert scheduler.escalations == 0 and scheduler.fast_slots == 0


# -- engine integration ---------------------------------------------------


def test_simulation_reports_lane_split():
    topo = complete_topology(6, capacity=30.0, seed=5)
    scheduler = make_scheduler("hybrid", topo, horizon=14)
    workload = PaperWorkload(topo, max_deadline=3, max_files=6, seed=9)
    result = Simulation(scheduler, workload, 10).run()  # audit on
    assert result.max_lateness() == 0
    assert result.escalations == scheduler.escalations
    assert result.fast_slots == scheduler.fast_slots
    assert result.escalations + result.fast_slots > 0


# -- cost regression pin --------------------------------------------------


@pytest.fixture(scope="module")
def default_scenario_costs():
    """LP, hybrid, and pure fast-lane costs on the default 10-DC scenario.

    Mirrors the smoke-scale bench setting (fig4 shape): complete
    10-DC topology at 100 GB/slot, Sec. VII workload with max T=3,
    12 slots, horizon 15.
    """
    costs = {}
    for name in ("postcard", "hybrid", "heuristic"):
        topo = complete_topology(10, capacity=100.0, seed=2012)
        workload = PaperWorkload(topo, max_deadline=3, max_files=10, seed=3012)
        scheduler = make_scheduler(name, topo, horizon=15)
        result = Simulation(scheduler, workload, 12).run()
        assert result.total_rejected == 0
        assert result.max_lateness() == 0
        costs[name] = result.final_cost_per_slot
    return costs


def test_hybrid_cost_within_pinned_factor_of_lp(default_scenario_costs):
    # Measured at PR 4: hybrid/LP = 1.46.  The pin leaves slack for
    # solver noise but catches regressions that break escalation or
    # the shared-ledger accounting.
    ratio = default_scenario_costs["hybrid"] / default_scenario_costs["postcard"]
    assert ratio <= 1.6


def test_fastlane_cost_within_pinned_factor_of_lp(default_scenario_costs):
    # Measured at PR 4: heuristic/LP = 1.94.  ALAP packing trades cost
    # for speed; the pin bounds how much.
    ratio = default_scenario_costs["heuristic"] / default_scenario_costs["postcard"]
    assert ratio <= 2.5


def test_hybrid_no_worse_than_pure_fast_lane(default_scenario_costs):
    assert (
        default_scenario_costs["hybrid"]
        <= default_scenario_costs["heuristic"] * (1 + 1e-9)
    )


# -- the solver watchdog (PR 7) --------------------------------------------


def pressured_requests(slot):
    # 9.5 GB over 1 slot on a 10 GB link: 95% peak, above the default
    # 0.9 threshold -> escalation-worthy.
    return [TransferRequest(0, 1, 9.5, 1, release_slot=slot)]


def test_watchdog_off_by_default_and_validated():
    topo = two_node_topology()
    assert HybridScheduler(topo, horizon=20).watchdog_timeout_s == 0.0
    with pytest.raises(SchedulingError, match="watchdog_timeout_s"):
        HybridScheduler(topo, horizon=20, watchdog_timeout_s=-1.0)


def test_watchdog_timeout_degrades_then_rearms():
    import time as _time

    topo = two_node_topology()
    scheduler = HybridScheduler(
        topo, horizon=20, watchdog_timeout_s=0.05,
        escalate_hook=lambda: _time.sleep(0.4),
    )
    schedule = scheduler.on_slot(0, pressured_requests(0))
    # The hang was abandoned; the fast plan still served the slot.
    assert scheduler.degraded == 1 and scheduler.last_lane == "degraded"
    assert schedule.entries  # the fast plan still served the slot
    # Backoff + zombie: the next pressured slot skips the LP outright.
    scheduler.on_slot(1, pressured_requests(1))
    assert scheduler.lp_skipped == 1 and scheduler.last_lane == "degraded"
    # The abandoned solve finishes, but the two-slot backoff still holds.
    scheduler._zombie.join(timeout=10)
    assert not scheduler._zombie.is_alive()
    scheduler._escalate_hook = lambda: None
    before = scheduler.escalations
    scheduler.on_slot(2, pressured_requests(2))
    assert scheduler.lp_skipped == 2 and scheduler.last_lane == "degraded"
    assert scheduler.escalations == before
    # Once the backoff window passes, escalation genuinely returns.
    scheduler.on_slot(3, pressured_requests(3))
    assert scheduler.escalations == before + 1 and scheduler.last_lane == "lp"
    assert scheduler.degraded == 1  # no new degrade


def test_watchdog_fast_solve_commits_normally():
    topo = two_node_topology()
    scheduler = HybridScheduler(topo, horizon=20, watchdog_timeout_s=5.0)
    scheduler.on_slot(0, pressured_requests(0))
    assert scheduler.escalations == 1
    assert scheduler.degraded == 0
    assert scheduler.state.completions  # the LP's commit landed


def test_watchdog_does_not_count_the_solver_load():
    """The first escalation loads the solver on the hybrid's own thread,
    before the worker starts: a load slower than the whole timeout (the
    fake sleeps once, as a cold import would) still leaves the slot to the
    LP.  Loaded inside the worker, it would time out and degrade."""
    import time as _time
    from unittest import mock

    from repro.lp import compile as lp_compile

    real, loads = lp_compile.load_solver, []

    def cold_load():
        if not loads:
            _time.sleep(0.3)
        loads.append(threading.current_thread())
        return real()

    scheduler = HybridScheduler(two_node_topology(), horizon=20, watchdog_timeout_s=0.1)
    with mock.patch.object(lp_compile, "load_solver", cold_load):
        scheduler.on_slot(0, pressured_requests(0))
    assert scheduler.last_lane == "lp" and scheduler.degraded == 0
    assert loads[0] is threading.current_thread()


def test_escalate_hook_errors_propagate():
    topo = two_node_topology()

    def boom():
        raise RuntimeError("injected hook failure")

    scheduler = HybridScheduler(
        topo, horizon=20, watchdog_timeout_s=5.0, escalate_hook=boom
    )
    with pytest.raises(RuntimeError, match="injected hook failure"):
        scheduler.on_slot(0, pressured_requests(0))


# -- the one failure path: a solver error degrades like a timeout ----------


def _solver_down():
    raise SolverError("backend 'highs' failed on model 'postcard': numerical difficulties")


@pytest.mark.parametrize("watchdog_timeout_s", [0.0, 5.0])
def test_solver_error_commits_the_fast_lane_plan(watchdog_timeout_s):
    """Inline or across the watchdog's worker thread, a ``SolverError``
    from the LP lane's plan phase takes the timeout's exit: the plan that
    flagged the pressure commits, counted and explained."""
    topo = two_node_topology()
    scheduler = HybridScheduler(
        topo, horizon=20, watchdog_timeout_s=watchdog_timeout_s,
        escalate_hook=_solver_down,
    )
    fast = FastLaneScheduler(topo, horizon=20, on_infeasible="drop")
    requests = pressured_requests(0) + [TransferRequest(1, 0, 3.0, 2, release_slot=0)]
    sink = obs.get_registry().add_sink(Events())
    try:
        schedule = scheduler.on_slot(0, requests)
    finally:
        obs.get_registry().remove_sink(sink)
    expected = fast.on_slot(0, requests)  # its own ledger: the same plan
    assert [(e.src, e.dst, e.slot, e.volume) for e in schedule.entries] == [
        (e.src, e.dst, e.slot, e.volume) for e in expected.entries
    ]
    assert (scheduler.degraded, scheduler.escalations, scheduler.lp_skipped) == (1, 1, 0)
    for request in requests:  # every request decided, none left hanging
        assert request.request_id in scheduler.state.completions
    by_name = {e["name"]: e["attrs"] for e in sink.events
               if e["name"] in ("hybrid.degraded", "service.degraded")}
    assert by_name["hybrid.degraded"]["reason"] == "solver"
    assert "numerical difficulties" in by_name["hybrid.degraded"]["error"]
    assert by_name["service.degraded"]["reason"] == "solver"
    # An error is not a stall: no zombie to wait out, no backoff armed —
    # the very next pressured slot is the LP's again.
    assert scheduler._zombie is None and scheduler._backoff_remaining == 0
    scheduler._escalate_hook = lambda: None
    scheduler.on_slot(1, pressured_requests(1))
    assert (scheduler.degraded, scheduler.escalations) == (1, 2)


@pytest.mark.parametrize("watchdog_timeout_s", [0.0, 5.0])
def test_infeasible_is_an_answer_not_a_solver_failure(watchdog_timeout_s):
    """``InfeasibleError`` subclasses ``SolverError``; the degrade path
    must not swallow it.  Nothing can carry 80 GB in 3 slots: the pruned
    model says so, the LP lane widens, hears it again, and sheds — under
    ``raise`` the caller hears it instead, as before."""
    from tests.test_lp_arcs import _detour_topology

    def batch():
        return [TransferRequest(0, 1, 80.0, 3, release_slot=0),
                TransferRequest(0, 2, 4.0, 2, release_slot=0)]

    dropping = HybridScheduler(
        _detour_topology(), 40, num_candidate_paths=1, on_infeasible="drop",
        watchdog_timeout_s=watchdog_timeout_s,
    )
    hopeless, fits = batch()
    dropping.on_slot(0, [hopeless, fits])
    assert (dropping.escalations, dropping.lp_widened, dropping.degraded) == (1, 1, 0)
    assert [r.request_id for r in dropping.state.rejected] == [hopeless.request_id]
    assert fits.request_id in dropping.state.completions

    raising = HybridScheduler(
        _detour_topology(), 40, num_candidate_paths=1,
        watchdog_timeout_s=watchdog_timeout_s,
    )
    with pytest.raises(InfeasibleError):
        raising.on_slot(0, batch())
    assert raising.degraded == 0 and not raising.state.completions
