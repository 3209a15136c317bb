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

What this module owns on top of :mod:`repro.core.flowlp`: arc
capacities are each link-slot's paid headroom, each file's supply is a
delivered volume ``y_k in [0, F_k]``, and the objective is the weighted
``sum(y_k)``.  Nothing is charged, so there are no charge rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.core.flowlp import (
    Users, add_balance_rows, add_capacity_rows, add_flows, flow_schedule,
    window_graph,
)
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LPBuilder, solve_lp
from repro.timeexp.graph import Arc
from repro.traffic.spec import TransferRequest


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

    # Free capacity only: the paid headroom of each link-slot.
    graph = window_graph(state.topology, requests, state.paid_headroom)

    lp = LPBuilder("bulk_throughput")
    flow_vars: Dict[Tuple[int, Arc], int] = {}
    users: Users = defaultdict(list)
    delivered_vars: Dict[int, int] = {}
    for request in requests:
        rid = request.request_id
        columns, balance = add_flows(
            lp, rid, graph.arcs_for_request(request), users
        )
        flow_vars.update(((rid, arc), var) for arc, var in columns.items())
        y = delivered_vars[rid] = lp.column(("y", rid), lb=0.0, ub=request.size_gb)
        source, sink = graph.source_node(request), graph.sink_node(request)
        add_balance_rows(lp, balance, lambda node: (
            (1.0, y) if node == source else (-1.0, y) if node == sink else 0.0
        ))

    add_capacity_rows(lp, users)
    lp.objective(
        delivered_vars.values(),
        [(weights or {}).get(rid, 1.0) for rid in delivered_vars],
        maximize=True,
    )
    solution = solve_lp(lp.compile())

    delivered = {rid: float(solution.x[var]) for rid, var in delivered_vars.items()}
    return BulkTransferResult(
        schedule=flow_schedule(
            (rid, arc, float(solution.x[var])) for (rid, arc), var in flow_vars.items()
        ),
        delivered=delivered,
        total_delivered=sum(delivered.values()),
    )
