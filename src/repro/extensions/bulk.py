"""Bulk background transfers over leftover bandwidth (objective (11)).

The cloud provider has already paid for each link's charged volume
``X_ij(t-1)``; any slot where a link carries less than that is free
capacity.  Following Sec. VI (and NetStitcher), bulk delay-tolerant
files — backups, data migration — should ride exclusively on this
leftover bandwidth, delivering as much volume as possible within each
file's deadline without increasing any link's bill.

Interpretation note: the paper states objective (11) "with all
constraints remaining the same", but keeping the exact-delivery
constraints (8) would make the objective a constant.  The sensible (and
NetStitcher-consistent) reading implemented here relaxes delivery to
*at most* ``F_k`` per file and maximizes the total delivered volume;
files may be partially transferred when free bandwidth is scarce.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LinExpr, Model, Variable
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


@dataclass
class BulkTransferResult:
    """Outcome of a bulk-throughput maximization."""

    schedule: TransferSchedule
    #: Delivered GB per request id (<= the request's size).
    delivered: Dict[int, float]
    #: Total delivered GB (the optimal objective (11) value).
    total_delivered: float

    def fraction_delivered(self, request: TransferRequest) -> float:
        return self.delivered.get(request.request_id, 0.0) / request.size_gb


def maximize_bulk_throughput(
    state: NetworkState,
    requests: List[TransferRequest],
    weights: Optional[Dict[int, float]] = None,
) -> BulkTransferResult:
    """Maximize (weighted) delivered bulk volume over paid headroom.

    ``weights`` maps request ids to objective weights (default 1.0
    each); weighting lets callers prioritize, say, compliance backups
    over cache warmups.
    """
    if not requests:
        raise SchedulingError("maximize_bulk_throughput needs at least one request")

    start = min(r.release_slot for r in requests)
    end = max(r.release_slot + r.deadline_slots for r in requests)
    # Free capacity only: the paid headroom of each link-slot.
    graph = TimeExpandedGraph(
        state.topology,
        start_slot=start,
        horizon=end - start,
        capacity_fn=state.paid_headroom,
    )

    model = Model("bulk_throughput")
    flow_vars: Dict[Tuple[int, Arc], Variable] = {}
    arc_users: Dict[Arc, List[Variable]] = defaultdict(list)
    delivered_vars: Dict[int, Variable] = {}
    objective_terms: List[Tuple[float, Variable]] = []

    for request in requests:
        rid = request.request_id
        balance: Dict[Tuple[int, int], List[Tuple[float, Variable]]] = defaultdict(list)
        for arc in graph.arcs_for_request(request):
            if arc.kind is ArcKind.TRANSIT and arc.capacity <= 0:
                continue
            var = model.add_variable(f"M[{rid},{arc.src},{arc.dst},{arc.slot}]")
            flow_vars[(rid, arc)] = var
            if arc.kind is ArcKind.TRANSIT:
                arc_users[arc].append(var)
            balance[arc.tail].append((1.0, var))
            balance[arc.head].append((-1.0, var))

        y = model.add_variable(f"y[{rid}]", lb=0.0, ub=request.size_gb)
        delivered_vars[rid] = y
        weight = (weights or {}).get(rid, 1.0)
        objective_terms.append((weight, y))

        source = graph.source_node(request)
        sink = graph.sink_node(request)
        for node, terms in balance.items():
            net = LinExpr.from_terms(terms)
            if node == source:
                model.add_constraint(net - y == 0.0, name=f"src[{rid}]")
            elif node == sink:
                model.add_constraint(net + y == 0.0, name=f"snk[{rid}]")
            else:
                model.add_constraint(net == 0.0, name=f"cons[{rid},{node[0]},{node[1]}]")

    for arc, users in arc_users.items():
        if arc.capacity != float("inf"):
            model.add_constraint(
                LinExpr.sum(users) <= arc.capacity,
                name=f"cap[{arc.src},{arc.dst},{arc.slot}]",
            )

    model.maximize(LinExpr.from_terms(objective_terms))
    solution = model.solve()

    entries = []
    for (rid, arc), var in flow_vars.items():
        volume = solution.value(var)
        if volume > VOLUME_ATOL:
            entries.append(
                ScheduleEntry(rid, arc.src, arc.dst, arc.slot, volume, arc.kind)
            )
    delivered = {rid: solution.value(var) for rid, var in delivered_vars.items()}
    return BulkTransferResult(
        schedule=TransferSchedule(entries),
        delivered=delivered,
        total_delivered=sum(delivered.values()),
    )
