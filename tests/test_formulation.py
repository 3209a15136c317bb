"""Unit tests for the Postcard LP formulation."""

import pytest

from repro.errors import InfeasibleError, SchedulingError
from repro.core.formulation import (
    STORAGE_DESTINATION_ONLY,
    build_postcard_model,
)
from repro.core.state import NetworkState
from repro.net.generators import fig1_topology, line_topology
from repro.traffic import TransferRequest


def test_needs_requests(line3):
    state = NetworkState(line3, horizon=10)
    with pytest.raises(SchedulingError):
        build_postcard_model(state, [])


def test_unknown_storage_policy(line3):
    state = NetworkState(line3, horizon=10)
    request = TransferRequest(0, 2, 1.0, 2)
    with pytest.raises(SchedulingError):
        build_postcard_model(state, [request], storage="ram_only")


def test_single_hop_single_slot(line3):
    state = NetworkState(line3, horizon=10)
    request = TransferRequest(0, 1, 5.0, 1, release_slot=0)
    built = build_postcard_model(state, [request])
    schedule, solution = built.solve()
    assert schedule.delivered_volume(request) == pytest.approx(5.0)
    # Only link (0,1) is charged: price 1, volume 5.
    assert solution.objective == pytest.approx(5.0)


def test_deadline_one_means_direct_only(line3):
    # Two-hop route 0->1->2 takes two slots under store-and-forward,
    # so a deadline of 1 slot with no direct link is infeasible.
    state = NetworkState(line3, horizon=10)
    request = TransferRequest(0, 2, 1.0, 1, release_slot=0)
    built = build_postcard_model(state, [request])
    with pytest.raises(InfeasibleError):
        built.solve()


def test_two_hops_in_two_slots(line3):
    state = NetworkState(line3, horizon=10)
    request = TransferRequest(0, 2, 6.0, 2, release_slot=0)
    built = build_postcard_model(state, [request])
    schedule, _ = built.solve()
    schedule.validate([request], capacity_fn=state.residual_capacity)
    assert schedule.completion_slot(request) == 1


def test_splitting_over_slots_reduces_peak(line3):
    # 20 GB over a 10-capacity link with a 4-slot deadline: the optimal
    # peak is 20/4 = 5 per slot, not min(cap, burst).
    state = NetworkState(line3, horizon=10)
    request = TransferRequest(0, 1, 20.0, 4, release_slot=0)
    built = build_postcard_model(state, [request])
    schedule, solution = built.solve()
    peaks = schedule.link_slot_volumes()
    assert max(peaks.values()) == pytest.approx(5.0)
    assert solution.objective == pytest.approx(5.0)


def test_prior_charge_makes_traffic_free(line3):
    # Paid volume 7 on (0,1): sending 6 more costs nothing extra.
    state = NetworkState(line3, horizon=20)
    r0 = TransferRequest(0, 1, 7.0, 1, release_slot=0)
    built0 = build_postcard_model(state, [r0])
    schedule0, _ = built0.solve()
    state.commit(schedule0, [r0])
    cost_before = state.current_cost_per_slot()

    r1 = TransferRequest(0, 1, 6.0, 1, release_slot=5)
    built1 = build_postcard_model(state, [r1])
    _, solution1 = built1.solve()
    assert solution1.objective == pytest.approx(cost_before)


def test_capacity_residual_respected(line3):
    state = NetworkState(line3, horizon=10)
    r0 = TransferRequest(0, 1, 10.0, 1, release_slot=0)  # fills slot 0
    built0 = build_postcard_model(state, [r0])
    schedule0, _ = built0.solve()
    state.commit(schedule0, [r0])

    r1 = TransferRequest(0, 1, 10.0, 1, release_slot=0)  # same slot: no room
    with pytest.raises(InfeasibleError):
        build_postcard_model(state, [r1]).solve()


def test_fixed_charge_cost_of_untouched_links():
    # Charges on links the new request cannot reach still appear in the
    # objective as constants.
    topo = line_topology(4, capacity=10.0)
    state = NetworkState(topo, horizon=10)
    r0 = TransferRequest(2, 3, 4.0, 1, release_slot=0)
    built0 = build_postcard_model(state, [r0])
    s0, _ = built0.solve()
    state.commit(s0, [r0])

    r1 = TransferRequest(0, 1, 2.0, 1, release_slot=8)
    built1 = build_postcard_model(state, [r1])
    # Link (2,3) lies outside r1's reachable window arcs at slot 8 only
    # if variables exist per arc; either way the objective must include
    # its standing charge of 4.
    _, solution1 = built1.solve()
    assert solution1.objective == pytest.approx(4.0 + 2.0)


def test_storage_enables_cheaper_path(fig1):
    # The Fig. 1 rationale, reduced: without storage at DC 1 the relay
    # path must push 3 per slot in back-to-back slots; with storage the
    # optimum is unchanged here, but destination_only must still deliver.
    state = NetworkState(fig1, horizon=10)
    request = TransferRequest(2, 3, 6.0, 3, release_slot=0)
    built_full = build_postcard_model(state, [request])
    _, sol_full = built_full.solve()

    state2 = NetworkState(fig1, horizon=10)
    built_hot = build_postcard_model(
        state2, [request.with_release(0)], storage=STORAGE_DESTINATION_ONLY
    )
    schedule_hot, sol_hot = built_hot.solve()
    assert sol_full.objective <= sol_hot.objective + 1e-9


def test_mixed_release_slots(line3):
    state = NetworkState(line3, horizon=20)
    r1 = TransferRequest(0, 1, 5.0, 2, release_slot=0)
    r2 = TransferRequest(1, 2, 5.0, 2, release_slot=3)
    built = build_postcard_model(state, [r1, r2])
    schedule, _ = built.solve()
    schedule.validate([r1, r2], capacity_fn=state.residual_capacity)
