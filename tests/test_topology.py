"""Unit tests for datacenters, links, and the Topology container."""

import pytest

from repro.errors import TopologyError
from repro.net import Datacenter, Link, Topology
from tests.paths_reference import cheapest_path_price, is_strongly_connected, to_networkx


def test_datacenter_default_name():
    assert Datacenter(3).name == "DC3"
    assert Datacenter(3, name="tokyo").name == "tokyo"


def test_datacenter_negative_id():
    with pytest.raises(TopologyError):
        Datacenter(-1)


def test_link_validation():
    with pytest.raises(TopologyError):
        Link(1, 1, price=1.0, capacity=5.0)  # self loop
    with pytest.raises(TopologyError):
        Link(1, 2, price=-1.0, capacity=5.0)
    with pytest.raises(TopologyError):
        Link(1, 2, price=1.0, capacity=0.0)


def test_empty_topology_rejected():
    with pytest.raises(TopologyError):
        Topology([], [])


def test_duplicate_datacenter_ids():
    with pytest.raises(TopologyError):
        Topology([Datacenter(0), Datacenter(0)], [])


def test_duplicate_links_rejected():
    dcs = [Datacenter(0), Datacenter(1)]
    links = [Link(0, 1, 1.0, 5.0), Link(0, 1, 2.0, 5.0)]
    with pytest.raises(TopologyError):
        Topology(dcs, links)


def test_link_to_unknown_datacenter():
    with pytest.raises(TopologyError):
        Topology([Datacenter(0), Datacenter(1)], [Link(0, 7, 1.0, 5.0)])


def test_queries(line3):
    assert line3.num_datacenters == 3
    assert line3.num_links == 4
    assert line3.has_link(0, 1)
    assert not line3.has_link(0, 2)
    assert line3.link(0, 1).capacity == 10.0
    assert (0, 1) in line3
    assert (0, 2) not in line3


def test_unknown_queries_raise(line3):
    with pytest.raises(TopologyError):
        line3.link(0, 2)
    with pytest.raises(TopologyError):
        line3.datacenter(99)
    with pytest.raises(TopologyError):
        line3.out_links(99)


def test_out_in_links(line3):
    assert {l.dst for l in line3.out_links(1)} == {0, 2}
    # Returned lists are copies: mutating them must not corrupt state.
    line3.out_links(1).clear()
    assert len(line3.out_links(1)) == 2


def test_is_complete(small_complete, line3):
    assert small_complete.is_complete()
    assert not line3.is_complete()


def test_strong_connectivity(line3):
    assert is_strongly_connected(line3)
    one_way = Topology(
        [Datacenter(0), Datacenter(1)], [Link(0, 1, 1.0, 5.0)]
    )
    assert not is_strongly_connected(one_way)


def test_to_networkx(fig3):
    graph = to_networkx(fig3)
    assert graph.number_of_nodes() == 4
    assert graph.number_of_edges() == 12
    assert graph[1][4]["price"] == 6.0
    assert graph[1][4]["capacity"] == 5.0


def test_cheapest_path_price(fig3):
    # 2 -> 4 direct costs 11; via 1 costs 1 + 6 = 7.
    assert cheapest_path_price(fig3, 2, 4) == pytest.approx(7.0)


def test_cheapest_path_price_no_path():
    topo = Topology([Datacenter(0), Datacenter(1)], [Link(1, 0, 1.0, 5.0)])
    assert cheapest_path_price(topo, 0, 1) is None


def test_iteration(line3):
    assert len(list(line3)) == 4
