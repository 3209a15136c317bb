"""Incremental construction of consecutive time-expanded graphs.

A controller that rebuilds a :class:`TimeExpandedGraph` every slot finds
consecutive windows overlapping in all but one layer: slot ``t``'s graph
spans ``[t, t + maxT)`` and slot ``t+1``'s spans ``[t+1, t+1 + maxT)``.
Worse, most per-slot arc sets are *identical* between builds — a
transit arc changes only when earlier commitments consumed residual
capacity on exactly that link-slot, and holdover arcs never change.

:class:`GraphCache` exploits this: it keeps the per-slot arc lists of
the last build and, on the next one, re-validates each cached transit
arc's capacity against the caller's ``capacity_fn``.  Unchanged arcs
are reused as-is (no allocation); changed ones are re-created with the
fresh capacity.  The resulting graph is **equal arc-for-arc** to a
from-scratch :class:`TimeExpandedGraph` over the same window — the
equivalence suite (``tests/test_compile_equivalence.py``) pins this.

Cache reuse is observable through the ``timeexp.cache.hit`` /
``timeexp.cache.refresh`` counters (arcs reused vs. rebuilt).

With a :class:`repro.net.schedule.LinkSchedule` attached, the cache
additionally tracks each scheduled link's **window epoch**: between
builds, only links whose windows actually changed are re-gated —
static schedules ride the bit-identical fast path at zero extra cost,
and a schedule mutation invalidates exactly the mutated links' arcs
(``timeexp.cache.window_invalidations`` counts them per build).

History: introduced in PR 3 for the online controller, which since PR 23
assembles its LP as arrays without any graph (``repro.core.formulation``);
the cache serves callers that want the graph (``scripts/bench_schedule.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import TopologyError
from repro.net.schedule import LinkSchedule
from repro.net.topology import LinkKey, Topology
from repro.obs import registry as obs
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph

CapacityFn = Callable[[int, int, int], float]


class GraphCache:
    """Builds time-expanded graphs, reusing arcs across consecutive calls.

    One cache serves one ``(topology, storage_capacity, include_holdover)``
    configuration — the same invariants a single scheduler holds for its
    whole run.  ``build`` is a drop-in replacement for the
    :class:`TimeExpandedGraph` constructor.
    """

    def __init__(
        self,
        topology: Topology,
        storage_capacity: float = float("inf"),
        include_holdover: bool = True,
        link_schedule: Optional[LinkSchedule] = None,
    ):
        self.topology = topology
        self.storage_capacity = storage_capacity
        self.include_holdover = include_holdover
        self.link_schedule = link_schedule
        #: Per scheduled link: its window epoch as of the previous
        #: build.  A link whose epoch is unchanged (and with no
        #: capacity_fn in play) keeps its cached arcs without even
        #: re-gating them; a mutated link is re-gated arc by arc.
        self._window_epochs: Dict[LinkKey, int] = {}
        self._prev_used_capacity_fn = False
        #: slot -> arc list in construction order (transit arcs in link
        #: order, then holdover arcs), as of the most recent build.
        self._slot_arcs: Dict[int, List[Arc]] = {}
        #: Lifetime tallies (also mirrored to obs counters).
        self.reused_arcs = 0
        self.refreshed_arcs = 0

    def build(
        self,
        start_slot: int,
        horizon: int,
        capacity_fn: Optional[CapacityFn] = None,
    ) -> TimeExpandedGraph:
        """A graph over ``[start_slot, start_slot + horizon)`` slots.

        Equivalent to ``TimeExpandedGraph(topology, start_slot, horizon,
        capacity_fn, storage_capacity, include_holdover)`` — only faster
        when windows overlap with earlier builds.
        """
        if horizon < 1:
            raise TopologyError(f"horizon must be >= 1 slot, got {horizon}")
        if start_slot < 0:
            raise TopologyError(f"start_slot must be non-negative, got {start_slot}")
        changed_links = self._changed_window_links(capacity_fn)
        reused = refreshed = 0
        slot_arcs: Dict[int, List[Arc]] = {}
        for slot in range(start_slot, start_slot + horizon):
            cached = self._slot_arcs.get(slot)
            if cached is None:
                arcs = self._build_slot(slot, capacity_fn)
                refreshed += len(arcs)
            else:
                arcs, hits = self._refresh_slot(
                    slot, cached, capacity_fn, changed_links
                )
                reused += hits
                refreshed += len(arcs) - hits
            slot_arcs[slot] = arcs
            self._slot_arcs[slot] = arcs
        # Drop slots that slid out of every plausible future window so a
        # long online run does not accumulate stale layers.
        for slot in [s for s in self._slot_arcs if s < start_slot]:
            del self._slot_arcs[slot]

        if self.link_schedule is not None:
            for link in self.topology.links:
                epoch = self.link_schedule.link_epoch(link.src, link.dst)
                if epoch:
                    self._window_epochs[link.key] = epoch
            if changed_links is not None:
                obs.counter(
                    "timeexp.cache.window_invalidations", len(changed_links)
                )
        self._prev_used_capacity_fn = capacity_fn is not None

        self.reused_arcs += reused
        self.refreshed_arcs += refreshed
        obs.counter("timeexp.cache.hit", reused)
        obs.counter("timeexp.cache.refresh", refreshed)
        return TimeExpandedGraph(
            self.topology,
            start_slot=start_slot,
            horizon=horizon,
            capacity_fn=capacity_fn,
            storage_capacity=self.storage_capacity,
            include_holdover=self.include_holdover,
            link_schedule=self.link_schedule,
            _slot_arcs=slot_arcs,
        )

    def _changed_window_links(
        self, capacity_fn: Optional[CapacityFn]
    ) -> Optional[frozenset]:
        """Links whose availability windows changed since the last build.

        Returns None when no schedule is attached (nothing to gate).
        The result feeds :meth:`_refresh_slot`'s fast path: with no
        ``capacity_fn`` in play, a cached arc of an *unchanged* link is
        reused without even re-deriving its gated capacity.  That skip
        is only sound when the previous build also ran without a
        ``capacity_fn`` (otherwise cached caps are residuals, not gated
        statics), so after a capacity_fn build every link counts as
        changed once.
        """
        if self.link_schedule is None:
            return None
        if capacity_fn is None and self._prev_used_capacity_fn:
            return frozenset(link.key for link in self.topology.links)
        return frozenset(
            link.key
            for link in self.topology.links
            if self.link_schedule.link_epoch(link.src, link.dst)
            != self._window_epochs.get(link.key, 0)
        )

    def invalidate(self) -> None:
        """Forget every cached arc (e.g. after a topology-level change
        such as a revealed outage making capacities jump discontinuously
        outside ``capacity_fn``'s own accounting)."""
        self._slot_arcs.clear()
        self._window_epochs.clear()

    # -- internals -------------------------------------------------------

    def _transit_cap(
        self,
        src: int,
        dst: int,
        slot: int,
        capacity_fn: Optional[CapacityFn],
        static_cap: float,
    ) -> float:
        """Effective per-slot transit capacity, window-gated first."""
        if self.link_schedule is not None and not self.link_schedule.is_up(
            src, dst, slot
        ):
            return 0.0
        if capacity_fn is not None:
            return capacity_fn(src, dst, slot)
        return static_cap

    def _build_slot(self, slot: int, capacity_fn: Optional[CapacityFn]) -> List[Arc]:
        """Fresh arcs for one slot, in the canonical construction order."""
        arcs: List[Arc] = []
        for link in self.topology.links:
            cap = self._transit_cap(
                link.src, link.dst, slot, capacity_fn, link.capacity
            )
            if cap < 0:
                raise TopologyError(
                    f"negative residual capacity on ({link.src},{link.dst}) "
                    f"at slot {slot}"
                )
            arcs.append(
                Arc(link.src, link.dst, slot, ArcKind.TRANSIT, cap, link.price)
            )
        if self.include_holdover:
            for node_id in self.topology.node_ids():
                arcs.append(
                    Arc(node_id, node_id, slot, ArcKind.HOLDOVER,
                        self.storage_capacity, 0.0)
                )
        return arcs

    def _refresh_slot(
        self,
        slot: int,
        cached: List[Arc],
        capacity_fn: Optional[CapacityFn],
        changed_links: Optional[frozenset] = None,
    ) -> tuple:
        """Re-validate one cached slot; returns (arcs, reused_count).

        ``changed_links`` is the window-epoch delta from
        :meth:`_changed_window_links`: when no ``capacity_fn`` is in
        play, arcs of links *not* in the set are reused verbatim —
        their gated capacity cannot have moved since the last build.
        """
        hits = 0
        arcs = cached
        skip_unchanged = capacity_fn is None and changed_links is not None
        for i, arc in enumerate(cached):
            if arc.kind is ArcKind.HOLDOVER:
                hits += 1
                continue
            if skip_unchanged and arc.link_key not in changed_links:
                hits += 1
                continue
            cap = self._transit_cap(
                arc.src,
                arc.dst,
                slot,
                capacity_fn,
                self.topology.link(arc.src, arc.dst).capacity,
            )
            if cap == arc.capacity:
                hits += 1
                continue
            if cap < 0:
                raise TopologyError(
                    f"negative residual capacity on ({arc.src},{arc.dst}) "
                    f"at slot {slot}"
                )
            if arcs is cached:
                arcs = list(cached)
            arcs[i] = Arc(arc.src, arc.dst, slot, ArcKind.TRANSIT, cap, arc.price)
        return arcs, hits
