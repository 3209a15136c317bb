"""Unit tests for the online Postcard scheduler."""

import pytest

from repro.errors import InfeasibleError, SchedulingError
from repro.core import PostcardScheduler
from repro.invariants import deadlines
from repro.net.generators import complete_topology, line_topology
from repro.traffic import TransferRequest
from tests.lp_simplex import simplex_in_place_of_highs


def test_empty_slot_is_noop(line3):
    scheduler = PostcardScheduler(line3, horizon=10)
    schedule = scheduler.on_slot(0, [])
    assert not schedule
    assert scheduler.state.current_cost_per_slot() == 0.0


def test_release_slot_mismatch_rejected(line3):
    scheduler = PostcardScheduler(line3, horizon=10)
    request = TransferRequest(0, 1, 1.0, 2, release_slot=5)
    with pytest.raises(SchedulingError):
        scheduler.on_slot(0, [request])


def test_unknown_policies_rejected(line3):
    with pytest.raises(SchedulingError):
        PostcardScheduler(line3, horizon=10, on_infeasible="panic")


def test_schedules_are_committed(line3):
    scheduler = PostcardScheduler(line3, horizon=10)
    request = TransferRequest(0, 2, 6.0, 2, release_slot=0)
    schedule = scheduler.on_slot(0, [request])
    assert schedule.delivered_volume(request) == pytest.approx(6.0)
    assert deadlines(scheduler.state.completions, {request.request_id: request.last_slot}) == []
    assert scheduler.last_objective == pytest.approx(
        scheduler.state.current_cost_per_slot()
    )


def test_online_rounds_respect_earlier_commitments(line3):
    scheduler = PostcardScheduler(line3, horizon=20)
    # Round 1 fills link (0,1) at slot 1 completely via a 2-slot file.
    r1 = TransferRequest(0, 1, 20.0, 2, release_slot=0)
    scheduler.on_slot(0, [r1])
    # Round 2 wants the same link in overlapping slots; capacity math
    # must hold across rounds (audited by commit).
    r2 = TransferRequest(0, 1, 10.0, 2, release_slot=1)
    scheduler.on_slot(1, [r2])
    ledger = scheduler.state.ledger
    for slot in range(4):
        assert ledger.volume(0, 1, slot) <= 10.0 + 1e-6


def test_infeasible_raises_by_default(line3):
    scheduler = PostcardScheduler(line3, horizon=10)
    impossible = TransferRequest(0, 2, 1.0, 1, release_slot=0)  # 2 hops, 1 slot
    with pytest.raises(InfeasibleError):
        scheduler.on_slot(0, [impossible])


def test_infeasible_drop_policy(line3):
    scheduler = PostcardScheduler(line3, horizon=10, on_infeasible="drop")
    impossible = TransferRequest(0, 2, 1.0, 1, release_slot=0)
    feasible = TransferRequest(0, 1, 5.0, 1, release_slot=0)
    schedule = scheduler.on_slot(0, [impossible, feasible])
    assert scheduler.state.rejected and scheduler.state.rejected[0] is impossible
    assert schedule.delivered_volume(feasible) == pytest.approx(5.0)


def test_drop_policy_can_empty_the_slot(line3):
    scheduler = PostcardScheduler(line3, horizon=10, on_infeasible="drop")
    impossible = TransferRequest(0, 2, 1.0, 1, release_slot=0)
    schedule = scheduler.on_slot(0, [impossible])
    assert not schedule
    assert len(scheduler.state.rejected) == 1


def test_storage_ablation_never_beats_full():
    topo = complete_topology(4, capacity=20.0, seed=11)
    requests = [
        TransferRequest(0, 1, 15.0, 3, release_slot=0),
        TransferRequest(1, 2, 25.0, 3, release_slot=0),
        TransferRequest(0, 3, 10.0, 3, release_slot=0),
    ]
    full = PostcardScheduler(topo, horizon=10)
    full.on_slot(0, [r.with_release(0) for r in requests])

    hot = PostcardScheduler(topo, horizon=10, storage="destination_only")
    hot.on_slot(0, [r.with_release(0) for r in requests])

    assert (
        full.state.current_cost_per_slot()
        <= hot.state.current_cost_per_slot() + 1e-6
    )


def test_simplex_backend_agrees_on_tiny_instance(line3):
    a = PostcardScheduler(line3, horizon=10)
    b = PostcardScheduler(line3, horizon=10)
    a.on_slot(0, [TransferRequest(0, 2, 4.0, 3, release_slot=0)])
    with simplex_in_place_of_highs():
        b.on_slot(0, [TransferRequest(0, 2, 4.0, 3, release_slot=0)])
    assert a.state.current_cost_per_slot() == pytest.approx(
        b.state.current_cost_per_slot(), abs=1e-6
    )


def _lookahead(topology, policy):
    from repro.core.lookahead import LookaheadPostcardScheduler

    return LookaheadPostcardScheduler(
        topology, 10, preview=lambda slot: [], on_infeasible=policy
    )


def _replan(topology, policy):
    from repro.core.replan import ReplanningPostcardScheduler

    return ReplanningPostcardScheduler(topology, 10, on_infeasible=policy)


def _q_aware(topology, policy):
    from repro.extensions.percentile import PercentileAwareScheduler

    return PercentileAwareScheduler(topology, 10, on_infeasible=policy)


@pytest.mark.parametrize(
    "make",
    [lambda t, policy: PostcardScheduler(t, 10, on_infeasible=policy),
     _lookahead, _replan, _q_aware],
    ids=["postcard", "lookahead", "replan", "q-aware"],
)
def test_the_policy_decides_raise_or_shed(line3, make):
    """Every store-and-forward LP scheduler hands its ``on_infeasible``
    to ``shed_until_feasible``: ``raise`` propagates, ``drop`` sheds."""
    impossible = TransferRequest(0, 2, 1.0, 1, release_slot=0)  # 2 hops, 1 slot
    with pytest.raises(InfeasibleError):
        make(line3, "raise").on_slot(0, [impossible])
    shedding = make(line3, "drop")
    shedding.on_slot(0, [impossible])
    assert shedding.state.rejected == [impossible]
