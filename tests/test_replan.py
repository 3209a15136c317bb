"""Unit tests for the replanning Postcard scheduler."""

import pytest

from repro.errors import InfeasibleError, SchedulingError
from repro.core import PostcardScheduler, ReplanningPostcardScheduler
from repro.invariants import deadlines
from repro.net.generators import complete_topology, fig3_topology, line_topology
from repro.sim import Simulation
from repro.traffic import PaperWorkload, TraceWorkload, TransferRequest


def drain_run(scheduler, requests, num_slots):
    """Simulate a trace plus enough empty slots to drain everything."""
    result = Simulation(scheduler, TraceWorkload(requests), num_slots).run()
    return result


def test_parameters_validated(line3):
    with pytest.raises(SchedulingError):
        ReplanningPostcardScheduler(line3, 10, on_infeasible="mutter")


def test_single_file_matches_commit_once(line3):
    """With one file and no later arrivals, replanning and commit-once
    face identical problems slot by slot."""
    request = TransferRequest(0, 2, 6.0, 3, release_slot=0)

    once = PostcardScheduler(line3, horizon=10)
    once.on_slot(0, [TransferRequest(0, 2, 6.0, 3, release_slot=0)])

    replan = ReplanningPostcardScheduler(line3, horizon=10)
    drain_run(replan, [request], num_slots=4)

    assert replan.state.current_cost_per_slot() == pytest.approx(
        once.state.current_cost_per_slot(), abs=1e-6
    )
    assert deadlines(replan.state.completions, {request.request_id: request.last_slot}) == []


def test_fig3_matches_offline_when_released_together(fig3):
    files = [
        TransferRequest(2, 4, 8.0, 4, release_slot=0),
        TransferRequest(1, 4, 10.0, 2, release_slot=0),
    ]
    scheduler = ReplanningPostcardScheduler(fig3, horizon=50)
    drain_run(scheduler, files, num_slots=5)
    assert scheduler.state.current_cost_per_slot() == pytest.approx(
        98.0 / 3.0, abs=1e-5
    )


def test_replanning_recovers_from_bad_commitment():
    """The signature win: a slot-1 arrival makes slot-0's plan
    regrettable; replanning adapts, commit-once cannot."""
    topo = fig3_topology()
    # File A (2->4, slack) arrives first and, myopically, grabs the
    # cheap link {1,4}; file B (1->4, tight) then has to pay more.
    file_a = TransferRequest(2, 4, 8.0, 5, release_slot=0)
    file_b = TransferRequest(1, 4, 10.0, 2, release_slot=1)

    once = PostcardScheduler(topo, horizon=50)
    once.on_slot(0, [TransferRequest(2, 4, 8.0, 5, release_slot=0)])
    once.on_slot(1, [TransferRequest(1, 4, 10.0, 2, release_slot=1)])

    replan = ReplanningPostcardScheduler(topo, horizon=50)
    drain_run(replan, [file_a, file_b], num_slots=7)

    assert (
        replan.state.current_cost_per_slot()
        <= once.state.current_cost_per_slot() + 1e-6
    )


def test_supplies_track_parked_data(line3):
    scheduler = ReplanningPostcardScheduler(line3, horizon=20)
    request = TransferRequest(0, 2, 6.0, 4, release_slot=0)
    scheduler.on_slot(0, [request])
    # After one slot the file is mid-flight: some volume left node 0.
    active = scheduler.active[0]
    assert active.remaining + active.delivered == pytest.approx(6.0)


def test_empty_slots_keep_draining(line3):
    scheduler = ReplanningPostcardScheduler(line3, horizon=20)
    request = TransferRequest(0, 2, 6.0, 4, release_slot=0)
    scheduler.on_slot(0, [request])
    for slot in range(1, 5):
        scheduler.on_slot(slot, [])
    assert request.request_id in scheduler.state.completions
    assert not scheduler.active


def test_file_resupplied_after_its_deadline_is_refused(line3):
    """A file handed back with no slot left leaves the active set, refused;
    the files still in flight keep moving."""
    scheduler = ReplanningPostcardScheduler(line3, horizon=20)
    late = TransferRequest(0, 1, 6.0, 1, release_slot=0)
    other = TransferRequest(0, 2, 6.0, 4, release_slot=0)
    scheduler.on_slot(0, [late, other])
    scheduler.resupply(late, {0: 6.0}, 0.0)
    for slot in range(1, 5):
        scheduler.on_slot(slot, [])
    assert scheduler.state.rejected == [late]
    assert late.request_id not in scheduler.state.completions
    assert other.request_id in scheduler.state.completions
    assert not scheduler.active


def test_infeasible_newcomer_dropped(line3):
    scheduler = ReplanningPostcardScheduler(line3, horizon=20, on_infeasible="drop")
    impossible = TransferRequest(0, 2, 1.0, 1, release_slot=0)
    fine = TransferRequest(0, 1, 5.0, 2, release_slot=0)
    scheduler.on_slot(0, [impossible, fine])
    assert [r.request_id for r in scheduler.state.rejected] == [
        impossible.request_id
    ]
    for slot in range(1, 4):
        scheduler.on_slot(slot, [])
    assert fine.request_id in scheduler.state.completions


def test_release_mismatch(line3):
    scheduler = ReplanningPostcardScheduler(line3, horizon=10)
    with pytest.raises(SchedulingError):
        scheduler.on_slot(0, [TransferRequest(0, 1, 1.0, 1, release_slot=2)])


def test_full_simulation_with_drain():
    topo = complete_topology(5, capacity=30.0, seed=15)
    workload = PaperWorkload(topo, max_deadline=3, max_files=3, seed=8)
    requests = workload.all_requests(4)  # arrivals only in slots 0-3
    scheduler = ReplanningPostcardScheduler(topo, horizon=20, on_infeasible="drop")
    result = Simulation(scheduler, TraceWorkload(requests), num_slots=8).run()
    assert result.max_lateness() == 0
    accounted = set(scheduler.state.completions) | {
        r.request_id for r in scheduler.state.rejected
    }
    assert {r.request_id for r in requests} <= accounted


def test_replanning_respects_faults(line3):
    """The replanner's future-capacity view honors the fault model."""
    from repro.sim import FaultModel, Outage

    scheduler = ReplanningPostcardScheduler(line3, horizon=20)
    scheduler.state.fault_model = FaultModel([Outage(0, 1, 0, 2)])
    request = TransferRequest(0, 1, 6.0, 4, release_slot=0)
    scheduler.on_slot(0, [request])
    for slot in range(1, 5):
        scheduler.on_slot(slot, [])
    ledger = scheduler.state.ledger
    assert ledger.volume(0, 1, 0) == 0.0
    assert ledger.volume(0, 1, 1) == 0.0
    assert request.request_id in scheduler.state.completions


def test_replanning_respects_link_windows():
    """The replanner's future-capacity view honors the link schedule
    too: a direct hop dark in slots 0-1 carries nothing then, even when
    the file's only way to meet its deadline is that hop."""
    from repro.invariants import cells
    from repro.net import LinkSchedule

    topology = complete_topology(4, capacity=30.0, seed=1)
    scheduler = ReplanningPostcardScheduler(topology, horizon=30, on_infeasible="drop")
    scheduler.state.link_schedule = LinkSchedule()
    scheduler.state.link_schedule.set_windows(0, 2, [(2, 40)])
    stranded = TransferRequest(0, 2, 5.0, 1, release_slot=0)
    patient = TransferRequest(0, 2, 5.0, 4, release_slot=0)
    scheduler.on_slot(0, [stranded, patient])
    for slot in range(1, 4):
        scheduler.on_slot(slot, [])
    assert cells(scheduler.state) == []
    assert scheduler.state.rejected == [stranded]
    assert patient.request_id in scheduler.state.completions
    assert not scheduler.active


def test_storage_counts_what_the_plans_store():
    """A slot in which the file only waits stores GB-slots too: the
    state counts every committed plan's storage, as it does for a
    scheduler committing through ``NetworkState.commit``."""
    from repro.net import LinkSchedule

    scheduler = ReplanningPostcardScheduler(line_topology(3, capacity=10.0), horizon=30)
    scheduler.state.link_schedule = LinkSchedule()
    scheduler.state.link_schedule.set_windows(0, 1, [(2, 40)])
    request = TransferRequest(0, 2, 6.0, 5, release_slot=0)
    stored = [scheduler.on_slot(0, [request]).total_storage_volume()]
    slot = 1
    while scheduler.active:
        stored.append(scheduler.on_slot(slot, []).total_storage_volume())
        slot += 1
    assert request.request_id in scheduler.state.completions
    assert stored[:2] == [6.0, 6.0]  # dark slots 0-1: the file waits at its source
    assert scheduler.state.storage_used == pytest.approx(sum(stored))


def test_replanning_never_worse_than_commit_once_on_average():
    """Across seeds, replanning's final bill is at most commit-once's
    (ties allowed; per-instance wins occur when arrivals collide)."""
    topo = complete_topology(4, capacity=25.0, seed=16)
    total_once, total_replan = 0.0, 0.0
    for seed in range(3):
        workload = PaperWorkload(topo, max_deadline=4, max_files=3, seed=seed)
        requests = workload.all_requests(4)

        once = PostcardScheduler(topo, horizon=20, on_infeasible="drop")
        Simulation(once, TraceWorkload(requests), 8).run()
        total_once += once.state.current_cost_per_slot()

        replan = ReplanningPostcardScheduler(topo, horizon=20, on_infeasible="drop")
        Simulation(replan, TraceWorkload(requests), 8).run()
        total_replan += replan.state.current_cost_per_slot()

    assert total_replan <= total_once * 1.01


def test_a_surprise_outage_sheds_active_files_instead_of_raising():
    """Seed 2 of the surprise-outage probe: outages void planned arcs and
    leave the active files jointly infeasible.  The replanner used to raise
    ``InfeasibleError`` there; now it sheds them like newcomers, each a
    recorded refusal.  The audit holds every other file delivered in time
    or, hit in its last slot, a recorded miss."""
    from repro.sim import FaultModel

    topology = complete_topology(5, capacity=50.0, seed=2)
    scheduler = ReplanningPostcardScheduler(topology, horizon=16, on_infeasible="drop")
    scheduler.state.fault_model = FaultModel.random(
        topology, num_slots=10, outage_probability=0.5, mean_duration=2.0,
        seed=2, announced=False,
    )
    workload = PaperWorkload(topology, max_deadline=3, max_files=4, seed=102)
    result = Simulation(scheduler, workload, num_slots=10).run(audit=True)
    refused = {r.request_id for r in scheduler.state.rejected}
    assert refused and result.max_lateness() == 0
    assert refused.isdisjoint(scheduler.state.completions)


@pytest.mark.parametrize("policy", ["drop", "raise"])
def test_an_active_file_that_no_longer_fits_is_shed(line3, policy):
    """A file whose slot-0 sends were voided holds 30 GB at its source with
    three slots left, 20 GB of path capacity: under ``drop`` it is refused
    and the other file moves on; under ``raise`` the slot commits nothing."""
    from repro.core.checkpoint import state_to_payload

    scheduler = ReplanningPostcardScheduler(line3, horizon=20, on_infeasible=policy)
    stuck = TransferRequest(0, 2, 30.0, 4, release_slot=0)
    other = TransferRequest(2, 0, 6.0, 4, release_slot=0)
    scheduler.on_slot(0, [stuck, other])
    scheduler.resupply(stuck, {0: 30.0}, 0.0)
    if policy == "raise":
        before, active = state_to_payload(scheduler.state), list(scheduler.active)
        with pytest.raises(InfeasibleError):
            scheduler.on_slot(1, [])
        assert state_to_payload(scheduler.state) == before and scheduler.active == active
        return
    for slot in range(1, 5):
        scheduler.on_slot(slot, [])
    assert scheduler.state.rejected == [stuck]
    assert other.request_id in scheduler.state.completions
    assert not scheduler.active
