"""The candidate-path table against the lazy index it replaced.

:class:`repro.heuristic.paths.CandidatePathIndex` tables every pair's
paths and arc sets at construction and reads link windows from per-slot
bit masks; ``tests/paths_reference.py`` keeps the lazy networkx-and-bisect
index as the oracle.  Both must hand out the same lists in the same
order, and the same arc sets, on any topology, schedule, window and hop
bound — and once a scheduler is built, planning a slot runs no graph
search at all.  The table's search, :func:`repro.heuristic.paths.
cheapest_paths`, is held to networkx's ``shortest_simple_paths`` list
for list, ties included.
"""

from __future__ import annotations

import itertools
import os

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulation import ArcSet
from repro.heuristic import HybridScheduler
from repro.heuristic import paths
from repro.heuristic.paths import CandidatePathIndex, adjacency, cheapest_paths
from repro.net.schedule import AvailabilityWindow, LinkSchedule
from repro.net.topology import Datacenter, Link, Topology
from repro.service.config import ServiceConfig
from repro.traffic.spec import TransferRequest
from tests import paths_reference

#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "10"))

#: Windows are every ``(first, last)`` with ``0 <= first < last <= HORIZON``.
HORIZON = 5


@st.composite
def _networks(draw):
    """A random topology (one-way links, tied prices, unreachable pairs
    allowed) and a schedule with every kind of link: unscheduled,
    windowless, one span and several; plus a link to reopen later."""
    nodes = draw(st.integers(3, 5))
    pairs = [(a, b) for a in range(nodes) for b in range(nodes) if a != b]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    prices = draw(st.lists(
        st.sampled_from([1.0, 2.0, 3.0]), min_size=len(pairs), max_size=len(pairs)
    ))
    links = [
        Link(a, b, capacity=10.0, price=price)
        for (a, b), keep, price in zip(pairs, present, prices) if keep
    ]
    topology = Topology([Datacenter(i) for i in range(nodes)], links)
    schedule = LinkSchedule()
    kinds = draw(st.lists(
        st.sampled_from(["always", "dark", "spans"]),
        min_size=len(links), max_size=len(links),
    ))
    for link, kind in zip(links, kinds):
        if kind == "dark":
            schedule.schedule_link(link.src, link.dst)
        elif kind == "spans":
            starts = draw(st.lists(st.integers(0, HORIZON), min_size=1, max_size=3))
            for start in starts:
                length = draw(st.integers(1, 3))
                schedule.add_window(
                    AvailabilityWindow(link.src, link.dst, start, start + length)
                )
    dark = [(l.src, l.dst) for l, kind in zip(links, kinds) if kind == "dark"]
    return topology, schedule, dark, draw(st.integers(1, 2))


@st.composite
def _graphs(draw):
    """Links among 2-6 nodes (one-way links, isolated and unreachable
    nodes allowed) with prices that tie, exactly or only up to rounding
    (0.1 + 0.2 != 0.3), and a subset of them lit."""
    nodes = draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(nodes) for b in range(nodes) if a != b]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    prices = draw(st.lists(
        st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0]),
        min_size=len(pairs), max_size=len(pairs),
    ))
    links = [(a, b, price) for (a, b), keep, price in zip(pairs, present, prices) if keep]
    lit = draw(st.lists(st.booleans(), min_size=len(links), max_size=len(links)))
    return nodes, links, [link for link, on in zip(links, lit) if on], draw(st.integers(1, 12))


def _networkx_paths(nodes, links, src, dst, k):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(nodes))
    graph.add_edges_from((a, b, {"price": price}) for a, b, price in links)
    try:
        search = nx.shortest_simple_paths(graph, src, dst, weight="price")
        return list(itertools.islice(search, k))
    except nx.NetworkXNoPath:
        return []


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(graph=_graphs())
def test_search_lists_what_networkx_lists(graph):
    """``cheapest_paths`` is ``islice(shortest_simple_paths(...), k)``: the
    same paths in the same order for every pair, on all links and on the
    lit ones, with ``k`` past the number of simple paths too."""
    nodes, links, lit, k = graph
    for subset in (links, lit):
        succ, pred = adjacency(range(nodes), subset)
        for src, dst in itertools.permutations(range(nodes), 2):
            assert cheapest_paths(succ, pred, src, dst, k) == _networkx_paths(
                nodes, subset, src, dst, k
            ), (subset, src, dst, k)


def _members(arcs):
    return None if arcs is None else arcs.members


def _assert_same(table, oracle, topology, schedule):
    nodes = topology.node_ids()
    pairs = [(src, dst) for src in nodes for dst in nodes if src != dst]
    hop_bounds = range(1, len(nodes))
    for src, dst in pairs:
        for max_hops in hop_bounds:
            assert table.candidates(src, dst, max_hops) == oracle.candidates(
                src, dst, max_hops
            )
    # Release slot outermost, as in a slot's batch: one view answers
    # every pair, hop bound and window end of a release slot.
    for first in range(HORIZON):
        for last in range(first + 1, HORIZON + 1):
            for src, dst in pairs:
                for max_hops in hop_bounds:
                    got = table.candidates(src, dst, max_hops, schedule, (first, last))
                    want = oracle.candidates(src, dst, max_hops, schedule, (first, last))
                    assert got == want, (src, dst, max_hops, first, last)
                request = TransferRequest(src, dst, 1.0, last - first, release_slot=first)
                for given_schedule in (None, schedule):
                    assert _members(table.arc_set(request, given_schedule)) == _members(
                        oracle.arc_set(request, given_schedule)
                    ), (src, dst, first, last)


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(network=_networks())
def test_table_answers_what_the_lazy_index_answers(network):
    """Same paths, same order, same arc sets — for every pair, window and
    hop bound, before and after a windowless link reopens (which bumps
    the epoch but not the release slot)."""
    topology, schedule, dark, max_paths = network
    table = CandidatePathIndex(topology, max_paths=max_paths)
    oracle = paths_reference.CandidatePathIndex(topology, max_paths=max_paths)
    _assert_same(table, oracle, topology, schedule)
    for src, dst in dark[:1]:
        schedule.add_window(AvailabilityWindow(src, dst, 1, HORIZON))
        _assert_same(table, oracle, topology, schedule)


def test_a_slot_is_planned_without_any_graph_search(monkeypatch):
    """Built on the daemon's 10-DC topology, the hybrid plans fast slots
    and escalates an ``lp_pressure``-shaped slot (40 files of 10-60 GB)
    with the path search and the arc-set builder both raising."""
    topology = ServiceConfig(datacenters=10, capacity=100.0).topology()
    scheduler = HybridScheduler(topology, 256, on_infeasible="drop")

    def searched(*args, **kwargs):
        raise AssertionError("a graph search ran while a slot was planned")

    monkeypatch.setattr(paths, "cheapest_paths", searched)
    monkeypatch.setattr(ArcSet, "from_paths", searched)

    rng = np.random.default_rng(1)

    def batch(slot, count, size, deadline):
        source = rng.integers(0, 10, count)
        destination = (source + rng.integers(1, 10, count)) % 10
        return [
            TransferRequest(int(s), int(d), float(rng.uniform(*size)),
                            int(rng.integers(deadline[0], deadline[1] + 1)),
                            release_slot=slot)
            for s, d in zip(source, destination)
        ]

    for slot in range(4):
        scheduler.on_slot(slot, batch(slot, 50, (0.05, 0.25), (2, 8)))
    assert scheduler.fast_slots == 4 and scheduler.escalations == 0
    for slot in (4, 5):
        scheduler.on_slot(slot, batch(slot, 40, (10.0, 60.0), (2, 6)))
    assert scheduler.escalations >= 1 and not scheduler.lp_widened
