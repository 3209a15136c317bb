"""Candidate paths for the fast-lane admission test.

The LP considers every path implicitly through the time-expanded graph;
the fast lane examines a handful of *candidate* simple paths per
(source, destination) pair, cheapest-first by per-GB price.  The
topology is fixed for a scheduler's lifetime, so every ordered pair's
list is computed when the index is built, together with the pair's
static :class:`~repro.core.formulation.ArcSet`: planning a slot on a
static topology never searches for a path or builds an arc set.

With a :class:`repro.net.schedule.LinkSchedule` the picture is
time-varying: the cheapest path is useless if one of its hops never
lights up inside the request's window.  ``candidates`` therefore takes
the schedule plus the request's slot window, drops paths with a
fully-dark hop, prefers paths lit throughout the window, and — when the
table's list runs short — searches the subgraph of links with an
up-slot.  A per-slot :class:`_SlotView` reads each scheduled link's
availability bit mask for a window, relative to the release slot, into
the window's **shade**: the bits of the links dark throughout it and of
those dark somewhere in it.  The view is keyed by the schedule object,
its **epoch** and the release slot, so a reopened link is seen by the
next query after the mutation.  An answer is a function of the pair, the
hop bound and the shade alone, so the index keeps it under that key:
release slots, and schedule epochs, that cast the same shade share it.

A hop bound below every tabled path's length would leave a file with no
candidate however idle its direct link; an answer the table leaves empty
therefore takes the cheapest path within the bound
(:func:`cheapest_within`), over the lit links when windowed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.core.formulation import ArcSet
from repro.net.schedule import LinkSchedule
from repro.net.topology import Topology

#: (nodes, links with prices, max_paths) -> an index's static tables.
#: Schedulers built on the same network (the runs of a sweep) share one;
#: it is never mutated, so a race between two threads building one only
#: repeats work.
_TABLES: Dict[tuple, tuple] = {}
_TABLES_KEPT = 32

#: Window answers (and their widened arc sets) an index keeps before it
#: starts over: a periodic schedule casts a few thousand shades at most.
_ANSWERS_KEPT = 8192


#: node -> {neighbour: price}, neighbours in ``topology.links`` order.
Adjacency = Dict[int, Dict[int, float]]


def adjacency(nodes, links) -> Tuple[Adjacency, Adjacency]:
    """Successor and predecessor maps of ``(src, dst, price)`` links."""
    succ: Adjacency = {node: {} for node in nodes}
    pred: Adjacency = {node: {} for node in nodes}
    for src, dst, price in links:
        succ[src][dst] = price
        pred[dst][src] = price
    return succ, pred


def cheapest_paths(succ: Adjacency, pred: Adjacency, source: int, target: int,
                   k: int) -> List[List[int]]:
    """The ``k`` cheapest simple ``source -> target`` paths, cheapest
    first; ``[]`` when there is none.

    A port of NetworkX 3.6's ``shortest_simple_paths(G, source, target,
    weight="price")`` on a DiGraph (Yen's algorithm over
    ``_bidirectional_dijkstra``; NetworkX is BSD-3-Clause, copyright the
    NetworkX developers) to plain dicts, so the daemon never imports the
    library.  Ties are broken as NetworkX breaks them, which the
    candidate lists' order depends on: the path buffer's push counter
    (a popped path may be pushed again), the root price summed left to
    right, the spur price ``seen[0][w] + seen[1][w]``, the alternation
    between the two search directions and neighbours in insertion order.
    ``tests/test_path_table.py`` holds it to NetworkX's lists.
    """
    found: List[List[int]] = []
    heap, queued, pushes = [], set(), count()

    def push(cost, path):
        if tuple(path) not in queued:
            heappush(heap, (cost, next(pushes), path))
            queued.add(tuple(path))

    best = _bidirectional_dijkstra(succ, pred, source, target, set(), set())
    if best is not None:
        push(*best)
    while heap:
        prev = heappop(heap)[2]
        queued.remove(tuple(prev))
        found.append(prev)
        if len(found) == k:
            break
        ignore_nodes, ignore_edges = set(), set()
        for i in range(1, len(prev)):
            root = prev[:i]
            root_length = sum(succ[u][v] for u, v in zip(root, root[1:]))
            for path in found:
                if path[:i] == root:
                    ignore_edges.add((path[i - 1], path[i]))
            spur = _bidirectional_dijkstra(
                succ, pred, root[-1], target, ignore_nodes, ignore_edges
            )
            if spur is not None:
                push(root_length + spur[0], root[:-1] + spur[1])
            ignore_nodes.add(root[-1])
    return found


def cheapest_within(succ: Adjacency, source: int, target: int,
                    max_hops: int) -> Optional[List[int]]:
    """The cheapest ``source -> target`` path of at most ``max_hops``
    hops, or ``None``.

    Bellman–Ford layered by hop count: after layer ``k`` each node holds
    its best walk of at most ``k`` hops from ``source``, by price summed
    left to right, then fewer hops, then the smaller node list.  Prices
    are non-negative, so a walk through a cycle never beats the walk that
    skips it: the winner is a simple path.
    """
    best = {source: (0.0, 1, [source])}
    for _ in range(max_hops):
        layer = dict(best)
        for node, (price, nodes, path) in best.items():
            for nxt, step in succ[node].items():
                offer = (price + step, nodes + 1, path + [nxt])
                held = layer.get(nxt)
                if held is None or offer < held:
                    layer[nxt] = offer
        best = layer
    found = best.get(target)
    return None if found is None else found[2]


def _bidirectional_dijkstra(succ, pred, source, target, ignore_nodes, ignore_edges):
    """``(price, path)`` of a cheapest path avoiding ``ignore_nodes`` and
    ``ignore_edges``, or ``None`` — NetworkX's search, step for step."""
    if source in ignore_nodes or target in ignore_nodes:
        return None
    if source == target:
        return 0, [source]
    dists, seen = ({}, {}), ({source: 0}, {target: 0})
    paths = ({source: [source]}, {target: [target]})
    fringe, pushes = ([(0, 0, source)], [(0, 1, target)]), count(2)
    final, way = None, 1
    while fringe[0] and fringe[1]:
        way = 1 - way
        dist, _, v = heappop(fringe[way])
        if v in dists[way]:
            continue
        dists[way][v] = dist
        if v in dists[1 - way]:
            return final
        for w, price in (pred if way else succ)[v].items():
            if w in ignore_nodes or ((w, v) if way else (v, w)) in ignore_edges:
                continue
            length = dist + price
            if w not in dists[way] and (w not in seen[way] or length < seen[way][w]):
                seen[way][w] = length
                heappush(fringe[way], (length, next(pushes), w))
                paths[way][w] = paths[way][v] + [w]
                if w in seen[0] and w in seen[1]:
                    total = seen[0][w] + seen[1][w]
                    if final is None or final[0] > total:
                        final = (total, paths[0][w] + paths[1][w][::-1][1:])
    return None


def _bits(link_bit: Dict[Tuple[int, int], int], path: List[int]) -> int:
    bits = 0
    for hop in zip(path, path[1:]):
        bits |= link_bit[hop]
    return bits


class _SlotView:
    """What the queries of one slot share, for one schedule state: per
    window length, the link bits the windows darken."""

    __slots__ = ("schedule", "epoch", "origin", "link_bit", "shades")

    def __init__(self, schedule: LinkSchedule, origin: int, link_bit: Dict):
        self.schedule, self.epoch, self.origin = schedule, schedule.epoch, origin
        self.link_bit = link_bit
        #: window length -> link bits (dark throughout, dark somewhere).
        self.shades: Dict[int, Tuple[int, int]] = {}

    def holds(self, schedule: LinkSchedule, origin: int) -> bool:
        return (self.schedule is schedule and self.epoch == schedule.epoch
                and self.origin == origin)

    def shade(self, last: int) -> Tuple[int, int]:
        """The bits of the scheduled links with no up-slot / with some
        dark slot in the window ``[origin, last)``, read from each one's
        availability mask (:meth:`LinkSchedule.up_mask`)."""
        length = max(last - self.origin, 0)
        shade = self.shades.get(length)
        if shade is None:
            full, dark, dim = (1 << length) - 1, 0, 0
            for link in self.schedule.scheduled_links():
                bit = self.link_bit.get(link, 0)
                mask = self.schedule.up_mask(*link, self.origin, last)
                if not mask:
                    dark |= bit
                if mask != full:
                    dim |= bit
            shade = self.shades[length] = (dark, dim)
        return shade


class CandidatePathIndex:
    """K-cheapest-simple-path lists per (src, dst), tabled at construction.

    The table costs ``DCs x (DCs - 1)`` :func:`cheapest_paths` searches plus as many
    arc sets, once per network and process; queries then only filter
    and rank.

    Parameters
    ----------
    topology:
        The inter-datacenter network; prices weight the path search.
    max_paths:
        Candidates returned per query.  Internally ``2 * max_paths``
        paths are tabled so deadline filtering (long paths cannot meet
        short deadlines) still leaves choices.
    """

    def __init__(self, topology: Topology, max_paths: int = 4):
        if max_paths < 1:
            raise SchedulingError("need at least one candidate path")
        self.topology = topology
        self.max_paths = max_paths
        links = tuple((link.src, link.dst, link.price) for link in topology.links)
        key = (tuple(topology.node_ids()), links, max_paths)
        tables = _TABLES.get(key)
        if tables is None:
            if len(_TABLES) >= _TABLES_KEPT:
                _TABLES.clear()
            tables = _TABLES[key] = self._tabulate(links)
        #: ``_table``: (src, dst) -> the pair's ``2 * max_paths`` cheapest
        #: simple paths; ``_arcs``: (src, dst) -> their ArcSet, ``None``
        #: when the search ran dry (see :meth:`arc_set`); ``_link_bit``:
        #: overlay link -> its bit in the path and window bit sets;
        #: ``_path_bits``: (src, dst) -> per tabled path, its links' bits.
        self._table, self._arcs, self._link_bit, self._path_bits = tables
        self._view: Optional[_SlotView] = None
        #: (src, dst, max_hops) -> what ``candidates`` returned without a
        #: schedule: the table is fixed, so the answer is too.
        self._answers: Dict[Tuple[int, int, int], List[List[int]]] = {}
        #: (src, dst, max_hops, dark, dim) -> what ``candidates`` returned
        #: for a window of that shade (see the module docstring).
        self._window_answers: Dict[Tuple[int, int, int, int, int], List[List[int]]] = {}
        #: (src, dst, paths beyond the table) -> the pair's widened ArcSet.
        self._arc_sets: Dict[tuple, ArcSet] = {}

    def _tabulate(self, links) -> tuple:
        nodes = self.topology.node_ids()
        succ, pred = adjacency(nodes, links)
        table = {
            (src, dst): cheapest_paths(succ, pred, src, dst, 2 * self.max_paths)
            for src in nodes
            for dst in nodes
            if src != dst
        }
        arcs = {
            pair: ArcSet.from_paths(self.topology, *pair, paths)
            if len(paths) == 2 * self.max_paths else None
            for pair, paths in table.items()
        }
        link_bit = {link.key: 1 << n for n, link in enumerate(self.topology.links)}
        path_bits = {
            pair: [_bits(link_bit, path) for path in paths]
            for pair, paths in table.items()
        }
        return table, arcs, link_bit, path_bits

    def candidates(
        self,
        src: int,
        dst: int,
        max_hops: int,
        schedule: Optional[LinkSchedule] = None,
        window: Optional[Tuple[int, int]] = None,
    ) -> List[List[int]]:
        """Up to ``max_paths`` cheapest paths with at most ``max_hops`` hops.

        Returns node-id lists (``[src, ..., dst]``), cheapest first; an
        empty list only when no path within ``max_hops`` exists.  With
        ``schedule`` and ``window`` (half-open ``(first, last)`` slots)
        paths with a hop that has no up-slot in the window are dropped,
        fully-lit survivors rank before ones that must thread dark gaps,
        and a window-specific search backfills a decimated list.  The
        lists are shared with the index: read them, never mutate them.
        """
        if schedule is None or window is None or not len(schedule):
            key = (src, dst, max_hops)
            answer = self._answers.get(key)
            if answer is None:
                answer = self._answers[key] = [
                    p for p in self._table[src, dst] if len(p) - 1 <= max_hops
                ][: self.max_paths] or self._within(src, dst, max_hops, 0)
            return answer

        first, last = window
        view = self._view
        if view is None or not view.holds(schedule, first):
            view = self._view = _SlotView(schedule, first, self._link_bit)
        dark, dim = view.shade(last)
        key = (src, dst, max_hops, dark, dim)
        answer = self._window_answers.get(key)
        if answer is None:
            if len(self._window_answers) >= _ANSWERS_KEPT:
                self._window_answers.clear()
            answer = self._window_answers[key] = self._window_answer(*key)
        return answer

    def arc_set(self, request, schedule: Optional[LinkSchedule] = None):
        """The LP view of everything the index holds for ``request``:
        the arcs of all its tabled paths plus whatever :meth:`candidates`
        adds for its hop bound and window — a superset of what admission
        can pick, so a model pruned to it always contains the fast lane's
        plan.  ``None`` (prune nothing) when the static search ran dry:
        the table then holds every simple path, and a set could only move
        the LP between equal-cost optima."""
        src, dst = request.source, request.destination
        arcs = self._arcs[src, dst]
        if arcs is None:
            return None
        base = self._table[src, dst]
        window = (request.release_slot, request.last_slot + 1)
        usable = self.candidates(src, dst, request.deadline_slots, schedule, window)
        extra = tuple(tuple(path) for path in usable if path not in base)
        if not extra:
            return arcs
        key = (src, dst, extra)
        widened = self._arc_sets.get(key)
        if widened is None:
            if len(self._arc_sets) >= _ANSWERS_KEPT:
                self._arc_sets.clear()
            widened = self._arc_sets[key] = ArcSet.from_paths(
                self.topology, src, dst, [*base, *extra]
            )
        return widened

    # -- internals -------------------------------------------------------

    def _window_answer(
        self, src: int, dst: int, max_hops: int, dark: int, dim: int
    ) -> List[List[int]]:
        """What :meth:`candidates` answers for a window that darkens the
        links of ``dark`` throughout and those of ``dim`` somewhere."""
        usable = [
            (path, bits) for path, bits in zip(self._table[src, dst],
                                               self._path_bits[src, dst])
            if len(path) - 1 <= max_hops and not bits & dark
        ]
        if len(usable) < self.max_paths:
            known = [path for path, _ in usable]
            usable += [
                (path, _bits(self._link_bit, path))
                for path in self._window_paths(src, dst, dark)
                if len(path) - 1 <= max_hops and path not in known
            ]
        if not usable:
            return self._within(src, dst, max_hops, dark)
        # Fully-lit paths first; among equals the cheapest-first order
        # of the underlying searches is preserved (sort is stable).
        dims = [bin(bits & dim).count("1") for _, bits in usable]
        order = sorted(range(len(usable)), key=dims.__getitem__)
        return [usable[i][0] for i in order[: self.max_paths]]

    def _lit(self, dark: int) -> Tuple[Adjacency, Adjacency]:
        """Successor and predecessor maps of the links outside ``dark``."""
        lit = [(link.src, link.dst, link.price) for link in self.topology.links
               if not self._link_bit[link.key] & dark]
        return adjacency(self.topology.node_ids(), lit)

    def _window_paths(self, src: int, dst: int, dark: int) -> List[List[int]]:
        """Cheapest paths over the links with an up-slot in the window
        (``dark``: the bits of the links without one)."""
        return cheapest_paths(*self._lit(dark), src, dst, 2 * self.max_paths)

    def _within(self, src: int, dst: int, max_hops: int, dark: int) -> List[List[int]]:
        """The cheapest path of at most ``max_hops`` hops over the links
        outside ``dark``, as a one-path answer; ``[]`` when there is none."""
        path = cheapest_within(self._lit(dark)[0], src, dst, max_hops)
        return [] if path is None else [path]

    def __len__(self) -> int:
        """Number of (src, dst) pairs in the table."""
        return len(self._table)
