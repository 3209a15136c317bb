"""Every file the network can carry within its deadline gets a candidate.

:class:`repro.heuristic.paths.CandidatePathIndex` tables the cheapest
paths of each pair by price alone; a deadline that allows fewer hops
than every tabled path once left a file with no candidate, however idle
its direct link, and one such file sent its whole batch to the LP.  An
answer the table leaves empty now takes the cheapest path within the hop
bound (:func:`repro.heuristic.paths.cheapest_within`), over the lit links
when the request has a window.
"""

from __future__ import annotations

import itertools
import os
from collections import deque

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristic.paths import CandidatePathIndex, adjacency, cheapest_within
from repro.net.generators import complete_topology
from repro.net.schedule import LinkSchedule
from repro.service import ServiceConfig, TransferBroker
from repro.traffic.spec import TransferRequest

#: Tier-1 runs a few examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "4"))

HOP_BOUNDS = range(1, 9)


def _hops_within(links, src, max_hops):
    """Hop distance from ``src`` over ``(a, b)`` links, up to ``max_hops``."""
    succ = {}
    for a, b in links:
        succ.setdefault(a, []).append(b)
    hops, queue = {src: 0}, deque([src])
    while queue:
        node = queue.popleft()
        if hops[node] == max_hops:
            continue
        for nxt in succ.get(node, ()):
            if nxt not in hops:
                hops[nxt] = hops[node] + 1
                queue.append(nxt)
    return hops


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(nodes=st.integers(3, 25), seed=st.integers(0, 10_000),
       max_paths=st.integers(1, 4))
def test_every_pair_has_a_candidate_within_every_hop_bound(nodes, seed, max_paths):
    """On a complete topology with random prices, every pair and hop
    bound gets a non-empty answer with no path over the bound, and the
    LP's arc set for that file holds every hop of it."""
    topology = complete_topology(nodes, capacity=10.0, seed=seed)
    index = CandidatePathIndex(topology, max_paths=max_paths)
    for src, dst in itertools.permutations(range(nodes), 2):
        for max_hops in HOP_BOUNDS:
            answer = index.candidates(src, dst, max_hops)
            assert answer, (src, dst, max_hops)
            assert all(len(path) - 1 <= max_hops for path in answer)
            arcs = index.arc_set(TransferRequest(src, dst, 1.0, max_hops))
            if arcs is not None:
                assert all(
                    any(arc[0] == hop for arc in arcs.members)
                    for path in answer for hop in zip(path, path[1:])
                ), (src, dst, max_hops)


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(data=st.data(), nodes=st.integers(3, 8), seed=st.integers(0, 10_000),
       max_paths=st.integers(1, 4))
def test_a_window_answer_is_empty_only_when_no_lit_path_fits(data, nodes, seed, max_paths):
    """With some links dark for the whole window, an answer avoids them,
    keeps to the hop bound, and is empty only when no lit path fits it."""
    topology = complete_topology(nodes, capacity=10.0, seed=seed)
    keys = sorted(link.key for link in topology.links)
    dark = data.draw(st.sets(st.sampled_from(keys), min_size=1))
    schedule = LinkSchedule()
    for src, dst in sorted(dark):
        schedule.schedule_link(src, dst)
    lit = [key for key in keys if key not in dark]
    index = CandidatePathIndex(topology, max_paths=max_paths)
    for src, dst in itertools.permutations(range(nodes), 2):
        for max_hops in HOP_BOUNDS:
            answer = index.candidates(src, dst, max_hops, schedule, (0, max_hops))
            reachable = dst in _hops_within(lit, src, max_hops)
            assert bool(answer) == reachable, (src, dst, max_hops)
            for path in answer:
                assert len(path) - 1 <= max_hops
                assert not set(zip(path, path[1:])) & dark
    # Windows that light some of those links part of the time, asked in a
    # random order and again: the slot's memo answers a repeated question
    # as the window's shade does.
    for src, dst in sorted(dark)[: len(dark) // 2]:
        start = data.draw(st.integers(0, 6))
        schedule.set_windows(src, dst, [(start, start + data.draw(st.integers(1, 4)))])
    first = data.draw(st.integers(0, 3))
    asked = data.draw(st.lists(
        st.tuples(st.sampled_from(list(itertools.permutations(range(nodes), 2))),
                  st.sampled_from(HOP_BOUNDS), st.integers(first, first + 8)),
        min_size=1, max_size=30,
    ))
    for (src, dst), max_hops, last in asked + asked:
        answer = index.candidates(src, dst, max_hops, schedule, (first, last))
        shaded = index._window_answer(src, dst, max_hops, *index._view.shade(last))
        assert answer == shaded, (src, dst, max_hops, first, last)


@settings(max_examples=10 * PROPERTY_EXAMPLES, deadline=None)
@given(nodes=st.integers(2, 6), data=st.data())
def test_cheapest_within_is_the_cheapest_short_path(nodes, data):
    """The hop-layered search returns what ranking every simple path of
    at most ``h`` hops returns: price summed left to right, then fewer
    hops, then the smaller node list; ``None`` when none fits."""
    pairs = list(itertools.permutations(range(nodes), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    prices = data.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=len(pairs), max_size=len(pairs),
    ))
    links = [(a, b, price) for (a, b), keep, price in zip(pairs, present, prices) if keep]
    graph = nx.DiGraph()
    graph.add_nodes_from(range(nodes))
    graph.add_weighted_edges_from(links, weight="price")
    succ, _ = adjacency(range(nodes), links)
    for (src, dst), max_hops in itertools.product(pairs, range(1, nodes)):
        ranked = [
            (sum(graph.edges[a, b]["price"] for a, b in zip(path, path[1:])),
             len(path), path)
            for path in nx.all_simple_paths(graph, src, dst, cutoff=max_hops)
        ]
        want = min(ranked)[2] if ranked else None
        assert cheapest_within(succ, src, dst, max_hops) == want, (src, dst, max_hops)


def test_a_deadline_one_file_on_an_untabled_direct_link_stays_on_the_fast_lane():
    """At the daemon's 10 DCs the direct link (2, 9) is not among the
    pair's tabled paths; a deadline-1 file there is admitted by the fast
    lane, and its batch of ordinary files does not escalate."""
    broker = TransferBroker(ServiceConfig(
        datacenters=10, capacity=100.0, max_deadline=8, tick_seconds=0.0,
    ))
    index = broker.scheduler._fast._paths
    assert all(len(path) > 2 for path in index._table[2, 9])
    broker.submit({"id": "tight", "source": 2, "destination": 9,
                   "size_gb": 0.1, "deadline_slots": 1})
    for i in range(20):
        broker.submit({"id": f"bulk{i}", "source": i % 10, "destination": (i + 3) % 10,
                       "size_gb": 0.2, "deadline_slots": 4})
    resolutions = broker.process_slot()
    assert {record["decision"] for _, record in resolutions} == {"admitted"}
    assert broker.scheduler.escalations == 0 and broker.scheduler.fast_slots == 1
    tight = next(record for pending, record in resolutions if pending.client_id == "tight")
    assert tight["completion_slot"] == 0
