"""Construction and queries of the time-expanded graph."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.net.topology import Topology
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest

#: A time-expanded node: (datacenter id, layer index).  Layer ``n`` is
#: the instant at the *beginning* of slot ``n``; data moving during slot
#: ``n`` traverses an arc from layer ``n`` to layer ``n+1``.
TimeNode = Tuple[int, int]


class ArcKind(enum.Enum):
    """Transit arcs move data between datacenters; holdover arcs store it."""

    TRANSIT = "transit"
    HOLDOVER = "holdover"


@dataclass(frozen=True)
class Arc:
    """One arc of the time-expanded graph.

    ``slot`` is the time slot during which the arc carries data (the
    arc runs from layer ``slot`` to layer ``slot + 1``).  For transit
    arcs, ``capacity`` and ``price`` mirror the underlying overlay
    link; holdover arcs have infinite capacity and zero price.
    """

    src: int
    dst: int
    slot: int
    kind: ArcKind
    capacity: float
    price: float

    @property
    def tail(self) -> TimeNode:
        return (self.src, self.slot)

    @property
    def head(self) -> TimeNode:
        return (self.dst, self.slot + 1)

    @property
    def link_key(self) -> Tuple[int, int]:
        """The overlay-link key (src, dst); for holdover arcs src == dst."""
        return (self.src, self.dst)

    def __repr__(self) -> str:
        tag = "hold" if self.kind is ArcKind.HOLDOVER else "move"
        return f"Arc({self.src}^{self.slot} -> {self.dst}^{self.slot + 1}, {tag})"


class TimeExpandedGraph:
    """The layered DAG over slots ``[start_slot, start_slot + horizon]``.

    ``capacity_fn(src, dst, slot)`` optionally overrides per-slot transit
    capacities — the online controller passes residual capacities here
    so that previously committed traffic is respected.  Holdover
    storage is uncapacitated, matching the paper (datacenters have disk
    to spare relative to WAN bandwidth); pass ``storage_capacity`` to
    study the capacitated variant.

    ``link_schedule`` (a :class:`repro.net.schedule.LinkSchedule`)
    zeroes a transit arc's capacity whenever the underlying link is
    outside its availability windows, *before* any ``capacity_fn``
    override — a dark link has no capacity regardless of what the
    residual accounting says.  Holdover arcs are never gated: a dark
    window is precisely when store-and-forward holds data.
    """

    def __init__(
        self,
        topology: Topology,
        start_slot: int,
        horizon: int,
        capacity_fn: Optional[Callable[[int, int, int], float]] = None,
        storage_capacity: float = float("inf"),
        include_holdover: bool = True,
        link_schedule=None,
        _slot_arcs: Optional[Dict[int, List[Arc]]] = None,
    ):
        if horizon < 1:
            raise TopologyError(f"horizon must be >= 1 slot, got {horizon}")
        if start_slot < 0:
            raise TopologyError(f"start_slot must be non-negative, got {start_slot}")
        self.topology = topology
        self.start_slot = start_slot
        self.horizon = horizon
        self.include_holdover = include_holdover
        self.storage_capacity = storage_capacity
        self.link_schedule = link_schedule

        self.arcs: List[Arc] = []
        self._out: Dict[TimeNode, List[Arc]] = {}
        self._in: Dict[TimeNode, List[Arc]] = {}

        if _slot_arcs is not None:
            # Construction from a GraphCache's per-slot arc lists; the
            # cache has already validated capacities against capacity_fn.
            with obs.span("timeexp.build", horizon=horizon, cached=True):
                for slot in range(start_slot, start_slot + horizon):
                    for arc in _slot_arcs[slot]:
                        self._add_arc(arc)
                obs.counter("timeexp.nodes", self.num_nodes)
                obs.counter("timeexp.arcs", len(self.arcs))
            return

        with obs.span("timeexp.build", horizon=horizon):
            for slot in range(start_slot, start_slot + horizon):
                for link in topology.links:
                    if link_schedule is not None and not link_schedule.is_up(
                        link.src, link.dst, slot
                    ):
                        cap = 0.0
                    else:
                        cap = (
                            capacity_fn(link.src, link.dst, slot)
                            if capacity_fn is not None
                            else link.capacity
                        )
                    if cap < 0:
                        raise TopologyError(
                            f"negative residual capacity on ({link.src},{link.dst}) "
                            f"at slot {slot}"
                        )
                    self._add_arc(
                        Arc(link.src, link.dst, slot, ArcKind.TRANSIT, cap, link.price)
                    )
                if include_holdover:
                    for node_id in topology.node_ids():
                        self._add_arc(
                            Arc(node_id, node_id, slot, ArcKind.HOLDOVER, storage_capacity, 0.0)
                        )
            obs.counter("timeexp.nodes", self.num_nodes)
            obs.counter("timeexp.arcs", len(self.arcs))

    def _add_arc(self, arc: Arc) -> None:
        self.arcs.append(arc)
        self._out.setdefault(arc.tail, []).append(arc)
        self._in.setdefault(arc.head, []).append(arc)

    # -- structure queries -------------------------------------------------

    @property
    def end_slot(self) -> int:
        """Index of the final layer."""
        return self.start_slot + self.horizon

    @property
    def num_layers(self) -> int:
        return self.horizon + 1

    def layers(self) -> range:
        """All layer indices, ``start_slot .. end_slot`` inclusive."""
        return range(self.start_slot, self.end_slot + 1)

    def slots(self) -> range:
        """All slot indices during which arcs carry data."""
        return range(self.start_slot, self.end_slot)

    def nodes(self) -> Iterator[TimeNode]:
        """All (datacenter, layer) nodes, layer by layer."""
        for layer in self.layers():
            for node_id in self.topology.node_ids():
                yield (node_id, layer)

    @property
    def num_nodes(self) -> int:
        return self.topology.num_datacenters * self.num_layers

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def out_arcs(self, node: TimeNode) -> List[Arc]:
        return list(self._out.get(node, []))

    def in_arcs(self, node: TimeNode) -> List[Arc]:
        return list(self._in.get(node, []))

    def transit_arcs(self) -> List[Arc]:
        return [a for a in self.arcs if a.kind is ArcKind.TRANSIT]

    def holdover_arcs(self) -> List[Arc]:
        return [a for a in self.arcs if a.kind is ArcKind.HOLDOVER]

    # -- per-request views ----------------------------------------------------

    def request_window(self, request: TransferRequest) -> Tuple[int, int]:
        """(first slot, last slot + 1) during which the file may move.

        Clipped to the graph's own span; raises if the request's window
        falls outside the graph entirely.
        """
        first = max(request.release_slot, self.start_slot)
        last_exclusive = min(request.release_slot + request.deadline_slots, self.end_slot)
        if first >= last_exclusive:
            raise TopologyError(
                f"request {request.request_id} window "
                f"[{request.release_slot}, {request.last_slot}] does not "
                f"intersect graph slots [{self.start_slot}, {self.end_slot - 1}]"
            )
        return first, last_exclusive

    def __repr__(self) -> str:
        return (
            f"TimeExpandedGraph(slots=[{self.start_slot},{self.end_slot}), "
            f"nodes={self.num_nodes}, arcs={self.num_arcs})"
        )
