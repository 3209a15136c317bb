"""Multicast transfers with shared upstream traffic.

Sec. III handles one-to-many replication "by introducing a separate
file for each source-destination pair" — upstream links then carry one
copy *per destination*.  Real replication fans out: a link common to
several destinations' routes only needs to carry the data once, with
duplication at the branch datacenter.

On the time-expanded graph this is the classic multicast LP relaxation:
per destination ``d`` a unit flow ``f_d`` from the source layer to
``d``'s deadline layer, plus a shared *occupancy* ``u_arc`` with

    u_arc >= f_d,arc      for every destination,

and the capacity and charge rows of :mod:`repro.core.flowlp` written
against ``u`` instead of the per-destination sum.  What this module
owns is that occupancy, the share rows, and each destination's supply
(the whole file at the source layer).  At any optimum ``u`` is the
pointwise max, i.e. the volume a replicating relay actually transmits.
(This is a relaxation of Steiner-style integral multicast, exact for
the single-source case with fractional splitting — which is the regime
the paper's model already lives in.)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.flowlp import (
    Users, add_balance_rows, add_capacity_rows, add_charge_rows, add_flows,
    flow_schedule, window_graph,
)
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import GE, LPBuilder, Solution, solve_lp
from repro.timeexp.graph import Arc, ArcKind
from repro.traffic.spec import expand_multicast
from repro.units import VOLUME_ATOL


@dataclass
class MulticastResult:
    """A solved multicast round."""

    #: Billable transmissions: what each link actually carries (the
    #: shared occupancy), as schedule entries under a synthetic id.
    schedule: TransferSchedule
    solution: Solution
    #: Cost per interval of the whole network after this round.
    cost_per_slot: float
    #: Completion slot per destination id.
    completions: Dict[int, int]


def solve_multicast(
    state: NetworkState,
    source: int,
    destinations: Sequence[int],
    size_gb: float,
    deadline_slots: int,
    release_slot: int = 0,
) -> MulticastResult:
    """Optimize one replication job with shared upstream traffic."""
    requests = expand_multicast(
        source, list(destinations), size_gb, deadline_slots, release_slot
    )
    graph = window_graph(state.topology, requests, state.residual_capacity)

    lp = LPBuilder("multicast")
    #: shared occupancy per transit arc, as its one capacity/charge user.
    occupancy: Users = {
        arc: [lp.column(("u", arc))]
        for arc in graph.arcs
        if arc.kind is ArcKind.TRANSIT and arc.capacity > 0
    }
    #: per-destination flows on each arc.
    flows: Dict[int, Dict[Arc, int]] = {}
    for request in requests:
        rid = request.request_id
        own: Users = defaultdict(list)
        flows[rid], balance = add_flows(
            lp, rid, graph.arcs_for_request(request), own
        )
        for arc, (var,) in own.items():
            lp.row([occupancy[arc][0], var], [1.0, -1.0], GE)
        source, sink = graph.source_node(request), graph.sink_node(request)
        add_balance_rows(lp, balance, lambda node: (
            size_gb if node == source else -size_gb if node == sink else 0.0
        ))

    add_capacity_rows(lp, occupancy)
    charged, prices, fixed_cost = add_charge_rows(
        lp, state.topology, occupancy, state.charged_volume, state.committed_volume,
    )
    lp.objective(charged, prices, fixed_cost)
    solution = solve_lp(lp.compile())
    x = solution.x

    # The billable schedule is the occupancy, attributed to the first
    # destination's request id (a synthetic "multicast job" id).
    job_id = requests[0].request_id
    schedule = TransferSchedule(
        ScheduleEntry(job_id, arc.src, arc.dst, arc.slot, float(x[u]))
        for arc, (u,) in occupancy.items()
        if x[u] > VOLUME_ATOL
    )

    completions = {}
    for request in requests:
        delivered = flow_schedule(
            (request.request_id, arc, float(x[var]))
            for arc, var in flows[request.request_id].items()
        ).completion_slot(request)
        if delivered is not None:
            completions[request.destination] = delivered

    return MulticastResult(
        schedule=schedule,
        solution=solution,
        cost_per_slot=solution.objective,
        completions=completions,
    )
