"""Unit tests for shared-upstream multicast optimization."""

import pytest

from repro.core import PostcardScheduler
from repro.core.state import NetworkState
from repro.extensions import solve_multicast
from repro.invariants import cells
from repro.net.generators import complete_topology, line_topology, star_topology
from repro.traffic import expand_multicast


def test_single_destination_matches_unicast(line3):
    state = NetworkState(line3, horizon=20)
    result = solve_multicast(state, 0, [2], 6.0, deadline_slots=3)
    unicast_state = NetworkState(line3, horizon=20)
    from repro.core import build_postcard_model
    from repro.traffic import TransferRequest

    _, unicast = build_postcard_model(
        unicast_state, [TransferRequest(0, 2, 6.0, 3, release_slot=0)]
    ).solve()
    assert result.cost_per_slot == pytest.approx(unicast.objective, rel=1e-6)


def test_shared_first_hop_on_star():
    """Replicating from one leaf to two others via the hub: the leaf's
    uplink carries the data ONCE under multicast, twice under the
    paper's per-destination expansion."""
    topo = star_topology(4, capacity=50.0, spoke_price=1.0)
    state = NetworkState(topo, horizon=20)
    result = solve_multicast(state, 1, [2, 3], 12.0, deadline_slots=4)

    # Separate-file baseline on a fresh state.
    separate = PostcardScheduler(star_topology(4, capacity=50.0, spoke_price=1.0), horizon=20)
    separate.on_slot(0, expand_multicast(1, [2, 3], 12.0, 4, release_slot=0))

    assert result.cost_per_slot <= separate.state.current_cost_per_slot() + 1e-6
    # The uplink (1 -> 0) carries at most the file size in total.
    uplink_total = sum(
        e.volume
        for e in result.schedule.entries
        if (e.src, e.dst) == (1, 0)
    )
    assert uplink_total <= 12.0 + 1e-6


def test_all_destinations_served():
    topo = complete_topology(5, capacity=40.0, seed=6)
    state = NetworkState(topo, horizon=20)
    result = solve_multicast(state, 0, [1, 2, 3], 25.0, deadline_slots=3)
    assert set(result.completions) == {1, 2, 3}
    deadline_layer = 0 + 3
    assert all(slot < deadline_layer for slot in result.completions.values())


def test_respects_capacity():
    topo = complete_topology(4, capacity=10.0, seed=8)
    state = NetworkState(topo, horizon=20)
    result = solve_multicast(state, 0, [1, 2], 18.0, deadline_slots=3)
    state.commit(result.schedule, [], validate=False)  # the shared occupancy
    assert cells(state) == []


def test_never_worse_than_separate_files():
    topo = complete_topology(6, capacity=30.0, seed=9)
    state = NetworkState(topo, horizon=20)
    result = solve_multicast(state, 0, [2, 3, 4], 20.0, deadline_slots=4)

    separate = PostcardScheduler(
        complete_topology(6, capacity=30.0, seed=9), horizon=20
    )
    separate.on_slot(0, expand_multicast(0, [2, 3, 4], 20.0, 4, release_slot=0))
    assert (
        result.cost_per_slot
        <= separate.state.current_cost_per_slot() + 1e-6
    )
