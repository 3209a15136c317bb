"""Unit tests for topology generators."""

import pytest

from repro.errors import TopologyError
from repro.net.generators import (
    complete_topology,
    fig1_topology,
    fig3_topology,
    line_topology,
    paper_topology,
    ring_topology,
    star_topology,
    two_region_topology,
)
from tests.paths_reference import is_strongly_connected


def test_complete_topology_shape():
    topo = complete_topology(6, capacity=30.0, seed=0)
    assert topo.num_datacenters == 6
    assert topo.num_links == 30
    assert topo.is_complete()


def test_complete_topology_price_range():
    topo = complete_topology(8, capacity=30.0, price_low=2.0, price_high=3.0, seed=1)
    assert all(2.0 <= l.price <= 3.0 for l in topo.links)


def test_complete_topology_deterministic():
    a = complete_topology(5, capacity=30.0, seed=7)
    b = complete_topology(5, capacity=30.0, seed=7)
    assert [l.price for l in a.links] == [l.price for l in b.links]
    c = complete_topology(5, capacity=30.0, seed=8)
    assert [l.price for l in a.links] != [l.price for l in c.links]


def test_complete_topology_symmetric_prices():
    topo = complete_topology(5, capacity=30.0, seed=3, symmetric_prices=True)
    for link in topo.links:
        assert link.price == topo.link(link.dst, link.src).price


def test_complete_topology_validation():
    with pytest.raises(TopologyError):
        complete_topology(1, capacity=10.0)
    with pytest.raises(TopologyError):
        complete_topology(3, capacity=10.0, price_low=5.0, price_high=2.0)


def test_paper_topology_matches_section7():
    topo = paper_topology(capacity=100.0, seed=0)
    assert topo.num_datacenters == 20
    assert topo.num_links == 380
    assert all(1.0 <= l.price <= 10.0 for l in topo.links)
    assert all(l.capacity == 100.0 for l in topo.links)


def test_fig1_topology():
    topo = fig1_topology()
    assert topo.num_datacenters == 3
    assert topo.link(2, 3).price == 10.0
    assert topo.link(2, 1).price == 1.0
    assert topo.link(1, 3).price == 3.0
    assert topo.link(1, 3).capacity == float("inf")


def test_fig3_topology():
    topo = fig3_topology()
    assert topo.num_datacenters == 4
    assert topo.num_links == 12
    assert all(l.capacity == 5.0 for l in topo.links)
    assert topo.link(2, 4).price == 11.0
    assert topo.link(1, 4).price == topo.link(4, 1).price == 6.0


def test_line_topology_unidirectional():
    topo = line_topology(4, capacity=10.0, bidirectional=False)
    assert topo.num_links == 3
    assert not is_strongly_connected(topo)


def test_ring_topology():
    topo = ring_topology(5, capacity=10.0)
    assert topo.num_links == 10
    assert is_strongly_connected(topo)
    with pytest.raises(TopologyError):
        ring_topology(2, capacity=10.0)


def test_star_topology():
    topo = star_topology(4, capacity=10.0)
    assert topo.num_datacenters == 5
    assert topo.num_links == 8
    assert topo.datacenter(0).name == "hub"
    # Leaves only connect via the hub.
    assert not topo.has_link(1, 2)
    with pytest.raises(TopologyError):
        star_topology(1, capacity=10.0)


def test_two_region_topology_price_structure():
    topo = two_region_topology(3, capacity=10.0, intra_price=1.0, inter_price=8.0, seed=0)
    assert topo.num_datacenters == 6
    assert topo.is_complete()
    intra = topo.link(0, 1).price
    inter = topo.link(0, 3).price
    assert intra < inter
    assert topo.datacenter(0).region == "east"
    assert topo.datacenter(5).region == "west"
