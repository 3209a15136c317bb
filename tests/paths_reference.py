"""The lazy candidate-path index the start-up table replaced, kept as an oracle.

:class:`CandidatePathIndex` here is the index as it was before the table:
it runs a networkx search on the first request of each (src, dst) pair,
asks the :class:`~repro.net.schedule.LinkSchedule` two bisects per hop
per request through an epoch-keyed dict, and backfills a decimated list
from a lit-subgraph search.  Slow, but obviously faithful to the rule
"cheapest first, drop fully-dark hops, fully-lit before partially-lit".

``tests/test_path_table.py`` pins :class:`repro.heuristic.paths.
CandidatePathIndex` to it: ``candidates()`` and ``arc_set()`` must be
equal, order included.

:func:`is_strongly_connected` and :func:`cheapest_path_price` are the two
networkx views of a :class:`~repro.net.topology.Topology` that only the
tests ask for.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import SchedulingError
from repro.core.formulation import ArcSet
from repro.net.schedule import LinkSchedule
from repro.net.topology import Topology


def is_strongly_connected(topology: Topology) -> bool:
    """True when every datacenter can reach every other one."""
    if topology.num_datacenters == 1:
        return True
    return nx.is_strongly_connected(topology.to_networkx())


def cheapest_path_price(topology: Topology, src: int, dst: int) -> Optional[float]:
    """Total per-GB price of the cheapest src→dst path, or None.

    A lower bound: no strategy can move a gigabyte from ``src`` to
    ``dst`` for less than this (storage is free).
    """
    topology.datacenter(src)
    topology.datacenter(dst)
    try:
        return float(nx.shortest_path_length(
            topology.to_networkx(), src, dst, weight="price"
        ))
    except nx.NetworkXNoPath:
        return None


#: Window-cache entries kept before wholesale pruning; epoch churn
#: retires entries naturally, this only bounds pathological workloads.
_WINDOW_CACHE_LIMIT = 4096


class CandidatePathIndex:
    """K-cheapest-simple-path lists per (src, dst), computed lazily.

    Parameters
    ----------
    topology:
        The inter-datacenter network; prices weight the path search.
    max_paths:
        Candidates returned per query.  Internally ``2 * max_paths``
        paths are cached so deadline filtering (long paths cannot meet
        short deadlines) still leaves choices.
    """

    def __init__(self, topology: Topology, max_paths: int = 4):
        if max_paths < 1:
            raise SchedulingError("need at least one candidate path")
        self.topology = topology
        self.max_paths = max_paths
        self._graph = topology.to_networkx()
        self._cache: Dict[Tuple[int, int], List[List[int]]] = {}
        #: (src, dst, schedule epoch, first, last) -> window-feasible
        #: paths.  Keyed by epoch so any schedule mutation — a link
        #: reopening included — invalidates by key miss, not by rebuild.
        self._window_cache: Dict[Tuple[int, int, int, int, int], List[List[int]]] = {}
        #: (all slots?, a, b, schedule epoch, first, last) -> the
        #: schedule's answer: a slot's batch asks about the same few
        #: windows of the same links request after request.
        self._lit: Dict[Tuple[bool, int, int, int, int, int], bool] = {}
        #: (src, dst, window-only paths) -> the pair's :class:`ArcSet`.
        self._arc_sets: Dict[tuple, ArcSet] = {}

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
        unreachable pair returns an empty list (and caches that).  With
        ``schedule`` and ``window`` (half-open ``(first, last)`` slots)
        paths with a hop that has no up-slot in the window are dropped,
        fully-lit survivors rank before ones that must thread dark
        gaps, and a window-specific search backfills a decimated list.
        """
        base = self._base_paths(src, dst)
        if schedule is None or window is None or not len(schedule):
            usable = [p for p in base if len(p) - 1 <= max_hops]
            return usable[: self.max_paths]

        first, last = window
        usable = [
            path
            for path in base
            if len(path) - 1 <= max_hops
            and all(
                self._up(schedule, False, a, b, first, last)
                for a, b in zip(path, path[1:])
            )
        ]
        if len(usable) < self.max_paths:
            for path in self._window_paths(src, dst, schedule, first, last):
                if len(path) - 1 <= max_hops and path not in usable:
                    usable.append(path)
        # Fully-lit paths first; among equals the cheapest-first order
        # of the underlying searches is preserved (sort is stable).
        usable.sort(
            key=lambda path: sum(
                1
                for a, b in zip(path, path[1:])
                if not self._up(schedule, True, a, b, first, last)
            )
        )
        return usable[: self.max_paths]

    def arc_set(self, request, schedule: Optional[LinkSchedule] = None):
        """The LP view of everything the index holds for ``request``:
        the arcs of all its cached static paths plus whatever
        :meth:`candidates` adds for its window — a superset of what
        admission can pick, so a model pruned to it always contains the
        fast lane's plan.  ``None`` (prune nothing) when the static
        search ran dry: the cache then holds every simple path, and a
        set could only move the LP between equal-cost optima."""
        src, dst = request.source, request.destination
        base, extra = self._base_paths(src, dst), ()
        if len(base) < 2 * self.max_paths:
            return None
        if schedule is not None and len(schedule):
            window = (request.release_slot, request.last_slot + 1)
            usable = self.candidates(src, dst, request.deadline_slots, schedule, window)
            extra = tuple(tuple(path) for path in usable if path not in base)
        key = (src, dst, extra)
        if key not in self._arc_sets:
            if len(self._arc_sets) >= _WINDOW_CACHE_LIMIT:
                self._arc_sets.clear()
            self._arc_sets[key] = ArcSet.from_paths(
                self.topology, src, dst, [*base, *extra]
            )
        return self._arc_sets[key]

    # -- internals -------------------------------------------------------

    def _base_paths(self, src: int, dst: int) -> List[List[int]]:
        paths = self._cache.get((src, dst))
        if paths is None:
            paths = self._cache[(src, dst)] = self._cheapest(self._graph, src, dst)
        return paths

    def _cheapest(self, graph, src: int, dst: int) -> List[List[int]]:
        """The ``2 * max_paths`` cheapest simple paths in ``graph``."""
        try:
            generator = nx.shortest_simple_paths(graph, src, dst, weight="price")
            return list(itertools.islice(generator, self.max_paths * 2))
        except nx.NetworkXNoPath:
            return []

    def _up(
        self, schedule: LinkSchedule, fully: bool, a: int, b: int,
        first: int, last: int,
    ) -> bool:
        """Link (a, b) is up in every (``fully``) / some slot of the window."""
        key = (fully, a, b, schedule.epoch, first, last)
        lit = self._lit.get(key)
        if lit is None:
            if len(self._lit) >= _WINDOW_CACHE_LIMIT:
                self._lit.clear()
            ask = schedule.fully_up_in_range if fully else schedule.up_in_range
            lit = self._lit[key] = ask(a, b, first, last)
        return lit

    def _window_paths(
        self, src: int, dst: int, schedule: LinkSchedule, first: int, last: int
    ) -> List[List[int]]:
        """Cheapest paths over the links with an up-slot in the window."""
        key = (src, dst, schedule.epoch, first, last)
        paths = self._window_cache.get(key)
        if paths is None:
            if len(self._window_cache) >= _WINDOW_CACHE_LIMIT:
                self._window_cache.clear()
            live = self._graph.edge_subgraph(
                (a, b)
                for a, b in self._graph.edges
                if schedule.up_in_range(a, b, first, last)
            )
            try:
                paths = self._cheapest(live, src, dst)
            except nx.NodeNotFound:  # an endpoint has no lit link at all
                paths = []
            self._window_cache[key] = paths
        return paths

    def __len__(self) -> int:
        """Number of (src, dst) pairs already indexed."""
        return len(self._cache)
