"""Unit tests for capacity shadow prices of the Postcard LP."""

import pytest

from repro.core import build_postcard_model
from repro.core.state import NetworkState
from repro.errors import ModelError
from repro.net.generators import complete_topology
from repro.net.topology import Datacenter, Link, Topology
from repro.traffic import TransferRequest
from tests.lp_reference import build_reference
from tests.lp_simplex import simplex_in_place_of_highs


def two_path_network(cheap_capacity: float):
    """0 -> 1 directly (pricey) or via 2 (cheap but capacitated)."""
    return Topology(
        [Datacenter(0), Datacenter(1), Datacenter(2)],
        [
            Link(0, 1, price=10.0, capacity=100.0),
            Link(0, 2, price=1.0, capacity=cheap_capacity),
            Link(2, 1, price=1.0, capacity=cheap_capacity),
        ],
    )


def test_binding_capacity_has_positive_price():
    topo = two_path_network(cheap_capacity=4.0)
    state = NetworkState(topo, horizon=20)
    # 12 GB in 2 slots: cheap path carries 4+4, the rest pays 10/GB.
    request = TransferRequest(0, 1, 12.0, 2, release_slot=0)
    built = build_postcard_model(state, [request])
    schedule, solution = built.solve()
    prices = built.congestion_prices(solution)
    assert prices, "expected at least one binding capacity row"
    # Every reported price points at a genuinely saturated link-slot.
    volumes = schedule.link_slot_volumes()
    for (src, dst, slot), price in prices.items():
        assert price > 0
        capacity = topo.link(src, dst).capacity
        assert volumes.get((src, dst, slot), 0.0) == pytest.approx(capacity, abs=1e-6)


def test_slack_network_has_no_prices():
    topo = two_path_network(cheap_capacity=100.0)
    state = NetworkState(topo, horizon=20)
    request = TransferRequest(0, 1, 12.0, 2, release_slot=0)
    built = build_postcard_model(state, [request])
    _, solution = built.solve()
    assert built.congestion_prices(solution) == {}


def test_prices_predict_upgrade_value():
    """Adding one unit of capacity on every priced link lowers the
    optimum by at most the sum of shadow prices — and by more than
    zero, since at least one bottleneck was binding.  (Upgrading a
    single serial bottleneck can legitimately save nothing: the cheap
    relay path here is capped by two links in series.)"""
    topo = two_path_network(cheap_capacity=4.0)
    state = NetworkState(topo, horizon=20)
    request = TransferRequest(0, 1, 12.0, 2, release_slot=0)
    built = build_postcard_model(state, [request])
    schedule, solution = built.solve()
    prices = built.congestion_prices(solution)

    # Serial bottlenecks split one path price across their duals (one
    # of them may carry all of it), so the upgrade experiment relaxes
    # every *saturated* link; the total saving is then bounded by the
    # total shadow price.
    saturated = {
        (src, dst)
        for (src, dst, _slot), volume in schedule.link_slot_volumes().items()
        if volume >= topo.link(src, dst).capacity - 1e-6
    }
    upgraded = Topology(
        [Datacenter(0), Datacenter(1), Datacenter(2)],
        [
            Link(
                l.src, l.dst, price=l.price,
                capacity=l.capacity + (1.0 if (l.src, l.dst) in saturated else 0.0),
            )
            for l in topo.links
        ],
    )
    state2 = NetworkState(upgraded, horizon=20)
    built2 = build_postcard_model(state2, [TransferRequest(0, 1, 12.0, 2, release_slot=0)])
    _, solution2 = built2.solve()
    saving = solution.objective - solution2.objective
    assert saving > 0
    assert saving <= sum(prices.values()) + 1e-6


def _named_row_prices(state, files):
    """The reference assembler's prices: the duals of its named
    capacity constraints, filtered as ``congestion_prices`` filters."""
    reference = build_reference(state, files)
    _, solution = reference.solve()
    prices = {}
    for key, constraint in reference.capacity_constraints.items():
        dual = solution.dual(constraint)
        if dual < -1e-9:
            prices[key] = -dual
    return prices


@pytest.mark.parametrize("cheap_capacity", [4.0, 5.0, 100.0])
def test_prices_are_the_reference_named_row_duals(cheap_capacity):
    """Each network above (5.0 is the upgraded one): the array model's
    row map reads the very duals the named rows get, exactly."""
    state = NetworkState(two_path_network(cheap_capacity), horizon=20)
    files = [TransferRequest(0, 1, 12.0, 2, release_slot=0)]
    built = build_postcard_model(state, files)
    _, solution = built.solve()
    expected = _named_row_prices(state, files)
    assert built.congestion_prices(solution) == expected
    assert bool(expected) == (cheap_capacity < 100.0)


def test_prices_equal_the_reference_on_a_loaded_mesh():
    """Many capacity rows, some dropped (cells full after a committed
    slot), mixed windows: still the same map and the same floats."""
    topology = complete_topology(5, capacity=12.0, seed=11)
    state = NetworkState(topology, horizon=30)
    first = [TransferRequest(s, (s + 2) % 5, 14.0, 2, release_slot=0) for s in range(5)]
    schedule, _ = build_postcard_model(state, first).solve()
    state.commit(schedule, first)
    files = [TransferRequest(s, (s + 1) % 5, 40.0, 2 + s % 2, release_slot=1)
             for s in range(5)]
    built = build_postcard_model(state, files)
    _, solution = built.solve()
    prices = built.congestion_prices(solution)
    assert prices and prices == _named_row_prices(state, files)


def test_the_simplex_backend_reports_no_prices():
    state = NetworkState(two_path_network(cheap_capacity=4.0), horizon=20)
    built = build_postcard_model(state, [TransferRequest(0, 1, 12.0, 2, release_slot=0)])
    with simplex_in_place_of_highs():
        _, solution = built.solve()
    with pytest.raises(ModelError):
        built.congestion_prices(solution)
