"""Unit + property tests for the time-expanded graph."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.net.generators import complete_topology, line_topology
from repro.timeexp import ArcKind, TimeExpandedGraph
from repro.traffic import TransferRequest
from tests.lp_reference import arcs_for_request, sink_node, source_node


@pytest.fixture
def graph(line3):
    return TimeExpandedGraph(line3, start_slot=2, horizon=3)


def test_construction_counts(graph, line3):
    # Per slot: 4 transit arcs (one per link) + 3 holdover arcs.
    assert graph.num_arcs == 3 * (4 + 3)
    assert graph.num_layers == 4
    assert graph.num_nodes == 3 * 4
    assert list(graph.layers()) == [2, 3, 4, 5]
    assert list(graph.slots()) == [2, 3, 4]


def test_invalid_parameters(line3):
    with pytest.raises(TopologyError):
        TimeExpandedGraph(line3, start_slot=0, horizon=0)
    with pytest.raises(TopologyError):
        TimeExpandedGraph(line3, start_slot=-1, horizon=2)


def test_arc_endpoints(graph):
    arc = next(a for a in graph.transit_arcs() if a.slot == 2 and a.src == 0)
    assert arc.tail == (0, 2)
    assert arc.head == (arc.dst, 3)


def test_holdover_arcs_free_and_uncapacitated(graph):
    for arc in graph.holdover_arcs():
        assert arc.src == arc.dst
        assert arc.price == 0.0
        assert arc.capacity == float("inf")


def test_transit_arcs_mirror_links(graph, line3):
    for arc in graph.transit_arcs():
        link = line3.link(arc.src, arc.dst)
        assert arc.capacity == link.capacity
        assert arc.price == link.price


def test_capacity_fn_override(line3):
    graph = TimeExpandedGraph(
        line3, start_slot=0, horizon=2, capacity_fn=lambda s, d, n: float(n + 1)
    )
    caps = {(a.src, a.dst, a.slot): a.capacity for a in graph.transit_arcs()}
    assert caps[(0, 1, 0)] == 1.0
    assert caps[(0, 1, 1)] == 2.0


def test_negative_capacity_fn_rejected(line3):
    with pytest.raises(TopologyError):
        TimeExpandedGraph(line3, start_slot=0, horizon=1, capacity_fn=lambda s, d, n: -1.0)


def test_no_holdover_option(line3):
    graph = TimeExpandedGraph(line3, start_slot=0, horizon=2, include_holdover=False)
    assert graph.holdover_arcs() == []


def test_storage_capacity_option(line3):
    graph = TimeExpandedGraph(line3, start_slot=0, horizon=2, storage_capacity=7.0)
    assert all(a.capacity == 7.0 for a in graph.holdover_arcs())


def test_out_in_arcs(graph):
    out = graph.out_arcs((1, 3))
    # Node 1 connects to 0 and 2 plus its own holdover.
    assert len(out) == 3
    heads = {a.head for a in out}
    assert (1, 4) in heads
    incoming = graph.in_arcs((1, 3))
    assert all(a.head == (1, 3) for a in incoming)


def test_request_window_clipping(graph):
    request = TransferRequest(0, 2, 1.0, 10, release_slot=0)
    first, last_exclusive = graph.request_window(request)
    assert (first, last_exclusive) == (2, 5)


def test_request_window_disjoint_raises(graph):
    late = TransferRequest(0, 2, 1.0, 2, release_slot=9)
    with pytest.raises(TopologyError):
        graph.request_window(late)


def test_arcs_for_request_deadline_cut(line3):
    graph = TimeExpandedGraph(line3, start_slot=0, horizon=5)
    request = TransferRequest(0, 2, 1.0, 2, release_slot=1)
    arcs = arcs_for_request(graph, request)
    assert all(1 <= a.slot <= 2 for a in arcs)


def test_source_and_sink_nodes(line3):
    graph = TimeExpandedGraph(line3, start_slot=0, horizon=5)
    request = TransferRequest(0, 2, 1.0, 2, release_slot=1)
    assert source_node(graph, request) == (0, 1)
    assert sink_node(graph, request) == (2, 3)


@settings(max_examples=25, deadline=None)
@given(
    num_dcs=st.integers(2, 5),
    start=st.integers(0, 4),
    horizon=st.integers(1, 6),
)
def test_structural_invariants(num_dcs, start, horizon):
    topo = complete_topology(num_dcs, capacity=10.0, seed=0)
    graph = TimeExpandedGraph(topo, start_slot=start, horizon=horizon)
    # Arc count: per slot, every link plus every node's holdover.
    assert graph.num_arcs == horizon * (topo.num_links + num_dcs)
    # Every arc advances exactly one layer.
    for arc in graph.arcs:
        assert arc.head[1] == arc.tail[1] + 1
        assert start <= arc.slot < start + horizon
    # Out-degree of any non-final-layer node = out-links + holdover.
    for node_id in topo.node_ids():
        for layer in range(start, start + horizon):
            out = graph.out_arcs((node_id, layer))
            assert len(out) == len(topo.out_links(node_id)) + 1
    # Final layer emits nothing.
    for node_id in topo.node_ids():
        assert graph.out_arcs((node_id, start + horizon)) == []
