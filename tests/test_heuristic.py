"""Unit tests for the fast-lane heuristic scheduler (PR 4).

Covers the utilization tracker's accounting, the candidate-path cache,
the ALAP placement rule (bytes land in the slots nearest the deadline),
headroom-first behavior, admission rejections, and the scheduler's
integration with the simulation engine and registry.
"""

import random

import pytest

from repro.errors import InfeasibleError, SchedulingError
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.scheduler import PostcardScheduler
from repro.core.state import NetworkState
from repro.heuristic import fastlane
from repro.heuristic import CandidatePathIndex, FastLaneScheduler
from repro.net.generators import complete_topology
from repro.net.topology import Datacenter, Link, Topology
from repro.registry import make_scheduler, scheduler_names
from repro.sim.engine import Simulation
from repro.traffic.spec import TransferRequest
from repro.traffic.workload import PaperWorkload
from tests.plan_reference import dense
from tests.schedule_reference import storage_slot_volumes
from tests.tracker_reference import ScalarTracker


def two_node_topology(capacity=10.0, price=1.0):
    return Topology(
        [Datacenter(0), Datacenter(1)],
        [
            Link(0, 1, capacity=capacity, price=price),
            Link(1, 0, capacity=capacity, price=price),
        ],
    )


# -- UtilizationTracker ---------------------------------------------------


def test_tracker_layers_pending_over_state():
    topo = two_node_topology(capacity=10.0)
    state = NetworkState(topo, horizon=10)
    tracker = ScalarTracker(state)
    assert tracker.residual(0, 1, 0) == 10.0
    assert tracker.utilization(0, 1, 0) == 0.0

    tracker.add(0, 1, 0, 4.0)
    assert tracker.pending(0, 1, 0) == 4.0
    assert tracker.residual(0, 1, 0) == 6.0
    assert tracker.utilization(0, 1, 0) == pytest.approx(0.4)
    assert tracker.peak_utilization() == pytest.approx(0.4)

    tracker.reset()
    assert tracker.pending(0, 1, 0) == 0.0
    assert tracker.peak_utilization() == 0.0


def test_tracker_headroom_tracks_paid_peak():
    topo = two_node_topology(capacity=10.0)
    state = NetworkState(topo, horizon=10)
    tracker = ScalarTracker(state)
    # Nothing paid yet: no free headroom anywhere.
    assert tracker.headroom(0, 1, 3) == 0.0

    # Commit 6 GB at slot 0 -> X_01 = 6; slots 1.. have 6 GB free.
    scheduler = FastLaneScheduler(topo, horizon=10, state=state)
    request = TransferRequest(0, 1, 6.0, 1, release_slot=0)
    scheduler.on_slot(0, [request])
    assert state.charged_volume(0, 1) == pytest.approx(6.0)
    assert tracker.headroom(0, 1, 1) == pytest.approx(6.0)
    # Pending volume eats into the free allowance.
    tracker.add(0, 1, 1, 2.0)
    assert tracker.headroom(0, 1, 1) == pytest.approx(4.0)


# -- CandidatePathIndex ---------------------------------------------------


def test_candidate_paths_cheapest_first_and_cached():
    topo = complete_topology(5, capacity=30.0, seed=1)
    index = CandidatePathIndex(topo, max_paths=3)
    # Every ordered pair is tabled at construction, before any query.
    assert len(index) == 5 * 4
    paths = index.candidates(0, 3, max_hops=4)
    assert paths and all(p[0] == 0 and p[-1] == 3 for p in paths)

    def price(path):
        return sum(
            topo.link(a, b).price for a, b in zip(path, path[1:])
        )

    assert price(paths[0]) == min(price(p) for p in paths)
    # Deadline filtering: 1 hop max leaves only the direct path.
    short = index.candidates(0, 3, max_hops=1)
    assert short == [[0, 3]]
    assert len(index) == 5 * 4


def test_candidate_paths_unreachable_pair():
    # A line topology has no path backwards from the last node when
    # only forward links exist?  line_topology is bidirectional, so
    # build an explicitly one-way pair instead.
    topo = Topology(
        [Datacenter(0), Datacenter(1)],
        [Link(0, 1, capacity=5.0, price=1.0)],
    )
    index = CandidatePathIndex(topo)
    assert index.candidates(1, 0, max_hops=3) == []


# -- ALAP placement -------------------------------------------------------


def test_single_hop_placement_is_as_late_as_possible():
    topo = two_node_topology(capacity=10.0)
    scheduler = FastLaneScheduler(topo, horizon=20)
    # 10 GB over a 4-slot window on a 10 GB/slot link: pure ALAP puts
    # everything in the final window slot.
    request = TransferRequest(0, 1, 10.0, 4, release_slot=0)
    schedule = scheduler.on_slot(0, [request])
    volumes = schedule.link_slot_volumes()
    assert volumes == {(0, 1, request.last_slot): pytest.approx(10.0)}


def test_oversized_file_spills_backward_from_deadline():
    topo = two_node_topology(capacity=10.0)
    scheduler = FastLaneScheduler(topo, horizon=20)
    # 25 GB through a 10 GB/slot link: slots 3, 2 fill completely and
    # slot 1 takes the 5 GB remainder; slot 0 stays free.
    request = TransferRequest(0, 1, 25.0, 4, release_slot=0)
    schedule = scheduler.on_slot(0, [request])
    volumes = schedule.link_slot_volumes()
    assert volumes[(0, 1, 3)] == pytest.approx(10.0)
    assert volumes[(0, 1, 2)] == pytest.approx(10.0)
    assert volumes[(0, 1, 1)] == pytest.approx(5.0)
    assert (0, 1, 0) not in volumes


def test_headroom_first_prefers_paid_slots():
    topo = two_node_topology(capacity=10.0)
    scheduler = FastLaneScheduler(topo, horizon=20)
    # First file sets the paid peak X_01 = 8 at its deadline slot 1.
    scheduler.on_slot(0, [TransferRequest(0, 1, 8.0, 2, release_slot=0)])
    assert scheduler.state.charged_volume(0, 1) == pytest.approx(8.0)
    # Second file (6 GB, window 1..3): the free pass should ride the
    # paid headroom of the *latest* free slots (2 GB left at slot 1 is
    # the only committed slot; slots 2, 3 are fully free up to 8 GB).
    schedule = scheduler.on_slot(1, [TransferRequest(0, 1, 6.0, 3, release_slot=1)])
    volumes = schedule.link_slot_volumes()
    # Everything fits under the paid peak in the last window slot: the
    # bill must not grow.
    assert scheduler.state.charged_volume(0, 1) == pytest.approx(8.0)
    assert volumes == {(0, 1, 3): pytest.approx(6.0)}


def test_multi_hop_emits_holdover_and_meets_deadline():
    # Force a 2-hop relay: no direct link from 0 to 2.
    topo = Topology(
        [Datacenter(0), Datacenter(1), Datacenter(2)],
        [
            Link(0, 1, capacity=10.0, price=1.0),
            Link(1, 2, capacity=10.0, price=1.0),
        ],
    )
    scheduler = FastLaneScheduler(topo, horizon=20)
    request = TransferRequest(0, 2, 10.0, 4, release_slot=0)
    schedule = scheduler.on_slot(0, [request])
    # Delivered in full, on time, with conservation intact.  Validate
    # against raw capacity: on_slot already committed the volumes, so
    # the state's residual view no longer covers this schedule.
    schedule.validate(
        [request], capacity_fn=lambda s, d, n: topo.link(s, d).capacity
    )
    completion = scheduler.state.completions[request.request_id]
    assert completion <= request.last_slot
    # ALAP: the final hop lands on the last window slot.
    last_hop_slots = [
        e.slot for e in schedule.entries if e.dst == 2
    ]
    assert max(last_hop_slots) == request.last_slot
    # The source parks data before the first hop departs: the wait is
    # implied by the late departure and counted as storage.
    first_hop_slots = [e.slot for e in schedule.entries if e.src == 0]
    assert min(first_hop_slots) > request.release_slot
    assert scheduler.state.storage_used > 0


@pytest.mark.parametrize("size", [1e-10, 1e-7, 1e-6])
@pytest.mark.parametrize("kind", [
    "fast", "greedy", "hybrid", "postcard", "direct", "flow-based",
    "flow-2phase", "q-aware", "postcard-replan",
])
def test_a_file_within_the_volume_tolerance_is_rejected_not_the_slot(kind, size):
    # ALAP returns an all-zero plan for a file of at most VOLUME_ATOL GB,
    # and an LP's flow reads back as nothing; committed, the file was
    # "not delivered" and failed the whole slot (the replanner left it
    # neither admitted nor rejected).
    topo = complete_topology(4, capacity=50.0, seed=1)
    scheduler = make_scheduler({"fast": "heuristic"}.get(kind, kind), topo, 20)
    tiny = TransferRequest(0, 1, size, 3, release_slot=0)
    big = TransferRequest(1, 2, 5.0, 3, release_slot=0)
    scheduler.on_slot(0, [tiny, big])
    for slot in range(1, big.last_slot + 1):  # the replanner delivers slot by slot
        scheduler.on_slot(slot, [])
    assert scheduler.state.rejected == [tiny]
    assert list(scheduler.state.completions) == [big.request_id]


def test_the_lp_raises_on_a_file_within_the_volume_tolerance_under_raise():
    scheduler = PostcardScheduler(complete_topology(4, capacity=50.0, seed=1), 20)
    with pytest.raises(InfeasibleError, match="volume tolerance"):
        scheduler.on_slot(0, [TransferRequest(0, 1, 1e-7, 3, release_slot=0)])
    assert not scheduler.state.rejected and not scheduler.state.completions


def test_infeasible_request_rejected_or_raised():
    topo = two_node_topology(capacity=10.0)
    # 50 GB in 2 slots through a 10 GB/slot pair: inadmissible.
    request = TransferRequest(0, 1, 50.0, 2, release_slot=0)

    raising = FastLaneScheduler(topo, horizon=20, on_infeasible="raise")
    with pytest.raises(InfeasibleError):
        raising.on_slot(0, [request])

    dropping = FastLaneScheduler(topo, horizon=20, on_infeasible="drop")
    schedule = dropping.on_slot(0, [TransferRequest(0, 1, 50.0, 2, release_slot=0)])
    assert not schedule
    assert len(dropping.state.rejected) == 1


def test_wrong_release_slot_raises():
    topo = two_node_topology()
    scheduler = FastLaneScheduler(topo, horizon=10)
    with pytest.raises(SchedulingError):
        scheduler.on_slot(1, [TransferRequest(0, 1, 1.0, 2, release_slot=0)])


def test_unknown_policy_rejected():
    with pytest.raises(SchedulingError):
        FastLaneScheduler(two_node_topology(), horizon=10, on_infeasible="shrug")


def test_empty_slot_returns_empty_schedule():
    scheduler = FastLaneScheduler(two_node_topology(), horizon=10)
    assert not scheduler.on_slot(0, [])


def test_two_pass_placement_respects_every_due_cutoff():
    # Regression: the ALAP sweep checks the lateness budget only at the
    # slot being filled.  Within one descending pass that cutoff is the
    # binding one, but when the *paid* pass (second) tops up a slot
    # above volume the *free* pass (first) already parked, the budget
    # at the lower cutoffs was partially spent — and the top-up used to
    # overdraw it, producing a relay that sends volume before it
    # arrives (conservation violation at the intermediate node).
    topo = Topology(
        [Datacenter(0), Datacenter(1), Datacenter(2)],
        [
            Link(0, 1, capacity=100.0, price=1.0),
            Link(1, 2, capacity=100.0, price=1.0),
        ],
    )
    scheduler = FastLaneScheduler(topo, horizon=20)
    # Relay hop 1->2: mid-window slot nearly choked, late slot partial,
    # early slot open — so its ALAP sends are early-heavy and hop 0->1
    # owes {0: 3.88, 1: 0.33, 2: 5.27}.  Hop 0->1 then has 2.6 GB of
    # free headroom per slot: the free pass parks 2.6 at slot 1 (far
    # over the 0.33 due there), and the paid top-up at slot 2 must not
    # pretend that budget is still available.
    # The landscape is written straight into the window rows (no filler
    # commits): residual per cell, and a paid peak of 2.6 over nothing
    # committed for the headroom.
    request = TransferRequest(0, 2, 9.48, 4, release_slot=0)
    first = scheduler.tracker.rows(0, 1, request.last_slot)
    first.charged = 2.6
    relay = scheduler.tracker.rows(1, 2, request.last_slot)
    relay.residual[2], relay.residual[3] = 0.33, 5.27
    sends = scheduler._place([first, relay], request, headroom_first=True)
    assert sends is not None
    assert dense(sends, request.deadline_slots)[0] == pytest.approx([3.88, 2.6, 3.0, 0.0])
    entries, _ = fastlane._emit(request, [0, 1, 2], sends)
    schedule = TransferSchedule(entries)
    schedule.validate([request])  # raised SchedulingError before the fix
    assert schedule.delivered_volume(request) == pytest.approx(9.48)


def test_a_slot_lists_transmissions_and_counts_the_waits_they_imply():
    # Waiting is implied: a fast-lane slot builds exactly one entry per
    # (file, link, slot) it sends on, none for waiting, and the storage it
    # commits is the GB-slots of waiting those entries imply.
    topo = complete_topology(5, capacity=20.0, seed=3)
    scheduler = FastLaneScheduler(topo, horizon=30, on_infeasible="drop")
    rng = random.Random(7)
    requests = []
    for _ in range(40):
        source, destination = rng.sample(range(5), 2)
        requests.append(TransferRequest(
            source, destination, float(rng.randint(2, 30)), rng.randint(2, 6),
            release_slot=0,
        ))
    plan = scheduler.plan_slot(0, requests)
    built = [(e.request_id, e.src, e.dst, e.slot) for e in plan.schedule.entries]
    assert len(built) == len(set(built))
    schedule = scheduler.commit_plan(plan)
    assert [(e.request_id, e.src, e.dst, e.slot) for e in schedule.entries] == built
    admitted = plan.accepted
    source = {r.request_id: r.source for r in admitted}
    assert any(e.src != source[e.request_id] for e in plan.schedule.entries)  # relays
    implied = sum(storage_slot_volumes(schedule, admitted).values())
    assert scheduler.state.storage_used > 0.0
    assert scheduler.state.storage_used == pytest.approx(implied, rel=1e-12)
    assert schedule.total_storage_volume() == scheduler.state.storage_used


# -- tentative planning (plan_slot) ---------------------------------------


def test_plan_slot_commits_nothing():
    topo = two_node_topology(capacity=10.0)
    scheduler = FastLaneScheduler(topo, horizon=20)
    plan = scheduler.plan_slot(0, [TransferRequest(0, 1, 5.0, 2, release_slot=0)])
    assert len(plan.accepted) == 1 and not plan.rejected
    assert plan.peak_utilization == pytest.approx(0.5)
    assert scheduler.state.ledger.total_volume() == 0.0
    assert not scheduler.state.completions
    # Committing the same plan later applies it.
    schedule = scheduler.commit_plan(plan)
    assert schedule.total_transit_volume() == pytest.approx(5.0)
    assert scheduler.state.ledger.total_volume() == pytest.approx(5.0)


def test_plan_slot_orders_tightest_deadline_first():
    topo = two_node_topology(capacity=10.0)
    scheduler = FastLaneScheduler(topo, horizon=20, on_infeasible="drop")
    # The loose file saturates all four window slots; if it were
    # planned first, the tight file (which needs slot 0 entirely) would
    # be squeezed out.  Tightest-deadline-first admits the tight file
    # and rejects the loose one instead.
    loose = TransferRequest(0, 1, 40.0, 4, release_slot=0)
    tight = TransferRequest(0, 1, 10.0, 1, release_slot=0)
    plan = scheduler.plan_slot(0, [loose, tight])
    assert len(plan.accepted) == 1
    assert plan.rejected == [loose]
    assert plan.accepted[0] is tight


def test_commit_plan_is_all_or_nothing():
    # One corrupt entry anywhere in the slot's plan must leave the books
    # exactly as they were: the slot loop requeues the *whole* batch on a
    # failed slot, so files committed before the bad one would be
    # charged twice by the retry.
    topo = complete_topology(4, capacity=20.0, seed=2)
    scheduler = FastLaneScheduler(topo, horizon=30, num_candidate_paths=3)
    state = scheduler.state
    # Oversized against the direct link, so some of it relays (storage).
    scheduler.on_slot(0, [TransferRequest(0, 1, 55.0, 3, release_slot=0)])

    def books():
        cells = {
            (src, dst, slot): volume
            for src, dst in state.ledger.used_links()
            for slot, volume in state.ledger.usage(src, dst).volumes.items()
        }
        return (cells, state.charged_snapshot(), dict(state.completions),
                state.storage_used, len(state.rejected))

    before = books()
    assert before[0] and before[3] > 0.0
    plan = scheduler.plan_slot(1, [
        TransferRequest(0, 1, 4.0, 2, release_slot=1),
        TransferRequest(2, 3, 6.0, 3, release_slot=1),
        TransferRequest(1, 0, 5.0, 4, release_slot=1),
    ])
    assert len(plan.accepted) == 3
    entries = plan.schedule.entries
    short = entries[-1]
    assert short.request_id == plan.accepted[-1].request_id
    entries[-1] = ScheduleEntry(
        short.request_id, short.src, short.dst, short.slot, short.volume / 2
    )
    with pytest.raises(SchedulingError, match="delivers"):
        scheduler.commit_plan(plan)
    assert books() == before


# -- integration ----------------------------------------------------------


def test_registry_and_simulation_integration():
    assert "heuristic" in scheduler_names()
    topo = complete_topology(6, capacity=30.0, seed=3)
    scheduler = make_scheduler("heuristic", topo, horizon=12)
    workload = PaperWorkload(topo, max_deadline=3, max_files=4, seed=7)
    result = Simulation(scheduler, workload, 8).run()  # audit on
    assert result.total_requests > 0
    assert result.max_lateness() == 0
    assert result.escalations == 0 and result.fast_slots == 0


def test_fastlane_never_beats_lp_on_cold_instance(small_complete):
    from repro.core import PostcardScheduler

    requests = [
        TransferRequest(0, 1, 20.0, 3, release_slot=0),
        TransferRequest(1, 4, 35.0, 4, release_slot=0),
        TransferRequest(2, 3, 10.0, 2, release_slot=0),
    ]
    fast = FastLaneScheduler(small_complete, horizon=20)
    fast.on_slot(0, [r.with_release(0) for r in requests])
    lp = PostcardScheduler(small_complete, horizon=20)
    lp.on_slot(0, [r.with_release(0) for r in requests])
    assert (
        lp.state.current_cost_per_slot()
        <= fast.state.current_cost_per_slot() + 1e-6
    )
