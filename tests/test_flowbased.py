"""Unit tests for the flow-based LP model and scheduler."""

import pytest

from repro.errors import InfeasibleError, SchedulingError
from repro.core.schedule import SEMANTICS_FLUID
from repro.core.state import NetworkState
from repro.core.scheduler import PostcardScheduler
from repro.invariants import deadlines
from repro.flowbased import (
    VARIANT_LP, VARIANT_TWO_PHASE, FlowBasedScheduler, build_flow_model,
)
from repro.net.generators import complete_topology, line_topology
from repro.net.topology import Datacenter, Link, Topology
from repro.traffic import TransferRequest


def test_needs_requests(line3):
    state = NetworkState(line3, horizon=10)
    with pytest.raises(SchedulingError):
        build_flow_model(state, [])


def test_constant_rate_over_window(line3):
    state = NetworkState(line3, horizon=10)
    request = TransferRequest(0, 1, 8.0, 4, release_slot=0)
    built = build_flow_model(state, [request])
    schedule, solution = built.solve()
    volumes = schedule.link_slot_volumes()
    for slot in range(4):
        assert volumes[(0, 1, slot)] == pytest.approx(2.0)
    assert solution.objective == pytest.approx(2.0)
    assert schedule.semantics == SEMANTICS_FLUID


def test_multi_hop_same_slot_allowed(line3):
    # Fluid relaying crosses two hops within one slot: a 1-slot deadline
    # works on the path 0->1->2, unlike store-and-forward.
    state = NetworkState(line3, horizon=10)
    request = TransferRequest(0, 2, 5.0, 1, release_slot=0)
    built = build_flow_model(state, [request])
    schedule, _ = built.solve()
    schedule.validate([request], capacity_fn=state.residual_capacity)
    assert schedule.completion_slot(request) == 0


def test_capacity_respected_across_active_files(line3):
    state = NetworkState(line3, horizon=10)
    requests = [
        TransferRequest(0, 1, 10.0, 2, release_slot=0),
        TransferRequest(0, 1, 10.0, 2, release_slot=0),
    ]
    built = build_flow_model(state, requests)
    schedule, _ = built.solve()
    volumes = schedule.link_slot_volumes()
    for slot in range(2):
        assert volumes.get((0, 1, slot), 0.0) <= 10.0 + 1e-6


def test_infeasible_when_rates_exceed_cut(line3):
    state = NetworkState(line3, horizon=10)
    # 30 GB in 2 slots = 15/slot through a 10/slot bottleneck cut.
    request = TransferRequest(0, 2, 30.0, 2, release_slot=0)
    with pytest.raises(InfeasibleError):
        build_flow_model(state, [request]).solve()


def test_no_storage_no_time_shifting(line3):
    # A fully booked slot blocks the flow-based model even if later
    # slots are idle (Postcard would wait; the flow cannot).
    state = NetworkState(line3, horizon=10)
    r0 = TransferRequest(0, 1, 10.0, 1, release_slot=0)
    built0 = build_flow_model(state, [r0])
    s0, _ = built0.solve()
    state.commit(s0, [r0])

    r1 = TransferRequest(0, 1, 10.0, 1, release_slot=0)
    with pytest.raises(InfeasibleError):
        build_flow_model(state, [r1]).solve()


def test_prior_charges_in_objective(line3):
    state = NetworkState(line3, horizon=10)
    r0 = TransferRequest(0, 1, 6.0, 1, release_slot=0)
    built0 = build_flow_model(state, [r0])
    s0, _ = built0.solve()
    state.commit(s0, [r0])

    # A later small file on the same link rides the paid volume.
    r1 = TransferRequest(0, 1, 4.0, 1, release_slot=5)
    _, solution = build_flow_model(state, [r1]).solve()
    assert solution.objective == pytest.approx(6.0)


class TestFlowBasedScheduler:
    def test_commit_and_completions(self, line3):
        scheduler = FlowBasedScheduler(line3, horizon=10)
        request = TransferRequest(0, 2, 6.0, 2, release_slot=0)
        scheduler.on_slot(0, [request])
        due = {request.request_id: request.last_slot}
        assert deadlines(scheduler.state.completions, due) == []

    def test_empty_slot(self, line3):
        scheduler = FlowBasedScheduler(line3, horizon=10)
        assert not scheduler.on_slot(0, [])

    def test_release_mismatch(self, line3):
        scheduler = FlowBasedScheduler(line3, horizon=10)
        request = TransferRequest(0, 1, 1.0, 1, release_slot=3)
        with pytest.raises(SchedulingError):
            scheduler.on_slot(0, [request])

    def test_unknown_variant(self, line3):
        with pytest.raises(SchedulingError):
            FlowBasedScheduler(line3, horizon=10, variant="magic")

    def test_drop_policy(self, line3):
        scheduler = FlowBasedScheduler(line3, horizon=10, on_infeasible="drop")
        huge = TransferRequest(0, 2, 500.0, 2, release_slot=0)
        small = TransferRequest(0, 1, 5.0, 2, release_slot=0)
        schedule = scheduler.on_slot(0, [huge, small])
        assert scheduler.state.rejected == [huge]
        assert schedule.delivered_volume(small) == pytest.approx(5.0)

    def test_two_phase_scheduler_runs(self):
        topo = complete_topology(4, capacity=20.0, seed=2)
        scheduler = FlowBasedScheduler(topo, horizon=20, variant="two_phase")
        requests = [
            TransferRequest(0, 1, 12.0, 2, release_slot=0),
            TransferRequest(2, 3, 8.0, 2, release_slot=0),
        ]
        scheduler.on_slot(0, requests)
        assert scheduler.last_lambda is not None
        for request in requests:
            assert request.request_id in scheduler.state.completions


def _stranded_source():
    """DCs 0, 1, 2 with links 0 <-> 1 only: DC 2 cannot send at all."""
    topology = Topology(
        [Datacenter(0), Datacenter(1), Datacenter(2)],
        [Link(0, 1, 1.0, 10.0), Link(1, 0, 1.0, 10.0)],
    )
    requests = [
        TransferRequest(0, 1, 5.0, 2, release_slot=0),
        TransferRequest(2, 1, 5.0, 2, release_slot=0),
    ]
    return topology, requests


@pytest.mark.parametrize("variant", [VARIANT_LP, VARIANT_TWO_PHASE])
def test_a_source_without_links_is_shed_like_postcard_sheds_it(variant):
    """Its conservation row has no column and a nonzero right-hand side:
    that is an infeasible file, shed under ``drop`` as Postcard sheds it,
    and an :class:`InfeasibleError` under ``raise``."""
    topology, requests = _stranded_source()
    postcard = PostcardScheduler(topology, 10, on_infeasible="drop")
    postcard.on_slot(0, requests)
    flow = FlowBasedScheduler(topology, 10, variant=variant, on_infeasible="drop")
    flow.on_slot(0, requests)
    admitted = [requests[0].request_id]
    assert sorted(postcard.state.completions) == admitted
    assert sorted(flow.state.completions) == admitted
    assert [r.request_id for r in flow.state.rejected] == [requests[1].request_id]

    strict = FlowBasedScheduler(topology, 10, variant=variant, on_infeasible="raise")
    with pytest.raises(InfeasibleError):
        strict.on_slot(0, requests)
