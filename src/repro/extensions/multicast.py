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

and capacity/charge rows written against ``u`` instead of the per-
destination sum.  At any optimum ``u`` is the pointwise max, i.e. the
volume a replicating relay actually transmits.  (This is a relaxation
of Steiner-style integral multicast, exact for the single-source case
with fractional splitting — which is the regime the paper's model
already lives in.)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import SchedulingError
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LinExpr, Model, Solution, Variable
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph
from repro.traffic.spec import TransferRequest, expand_multicast
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

    start = release_slot
    end = release_slot + deadline_slots
    graph = TimeExpandedGraph(
        state.topology,
        start_slot=start,
        horizon=end - start,
        capacity_fn=state.residual_capacity,
    )

    model = Model("multicast")
    #: per-destination flows on each arc.
    flow_vars: Dict[Tuple[int, Arc], Variable] = {}
    #: shared occupancy per transit arc.
    occupancy: Dict[Arc, Variable] = {}

    arcs = list(graph.arcs)
    for arc in arcs:
        if arc.kind is ArcKind.TRANSIT:
            if arc.capacity <= 0:
                continue
            occupancy[arc] = model.add_variable(
                f"u[{arc.src},{arc.dst},{arc.slot}]"
            )

    for request in requests:
        rid = request.request_id
        balance: Dict[Tuple[int, int], List[Tuple[float, Variable]]] = defaultdict(list)
        for arc in graph.arcs_for_request(request):
            if arc.kind is ArcKind.TRANSIT and arc not in occupancy:
                continue
            var = model.add_variable(f"f[{rid},{arc.src},{arc.dst},{arc.slot}]")
            flow_vars[(rid, arc)] = var
            if arc.kind is ArcKind.TRANSIT:
                model.add_constraint(
                    occupancy[arc] >= var, name=f"share[{rid},{arc.src},{arc.dst},{arc.slot}]"
                )
            balance[arc.tail].append((1.0, var))
            balance[arc.head].append((-1.0, var))

        src_node = graph.source_node(request)
        sink = graph.sink_node(request)
        for node, terms in balance.items():
            net = LinExpr.from_terms(terms)
            if node == src_node:
                model.add_constraint(net == size_gb, name=f"src[{rid}]")
            elif node == sink:
                model.add_constraint(net == -size_gb, name=f"snk[{rid}]")
            else:
                model.add_constraint(net == 0.0, name=f"cons[{rid},{node}]")

    # Capacity and charge rows on the shared occupancy.
    for arc, u in occupancy.items():
        if arc.capacity != float("inf"):
            model.add_constraint(u <= arc.capacity, name=f"cap[{arc}]")

    by_link: Dict[Tuple[int, int], Dict[int, Variable]] = defaultdict(dict)
    for arc, u in occupancy.items():
        by_link[arc.link_key][arc.slot] = u

    objective_terms: List[Tuple[float, Variable]] = []
    fixed_cost = 0.0
    for link in state.topology.links:
        key = link.key
        prior = state.charged_volume(*key)
        if key not in by_link:
            fixed_cost += link.price * prior
            continue
        x = model.add_variable(f"X[{key[0]},{key[1]}]", lb=prior)
        for slot, u in by_link[key].items():
            committed = state.committed_volume(key[0], key[1], slot)
            model.add_constraint(x >= u + committed, name=f"chg[{key},{slot}]")
        objective_terms.append((link.price, x))

    model.minimize(LinExpr.from_terms(objective_terms, constant=fixed_cost))
    solution = model.solve()

    # The billable schedule is the occupancy, attributed to the first
    # destination's request id (a synthetic "multicast job" id).
    job_id = requests[0].request_id
    entries = []
    for arc, u in occupancy.items():
        volume = solution.value(u)
        if volume > VOLUME_ATOL:
            entries.append(
                ScheduleEntry(job_id, arc.src, arc.dst, arc.slot, volume)
            )

    completions = {}
    for request in requests:
        arrivals: Dict[int, float] = defaultdict(float)
        for (rid, arc), var in flow_vars.items():
            if rid != request.request_id or arc.kind is not ArcKind.TRANSIT:
                continue
            value = solution.value(var)
            if arc.dst == request.destination:
                arrivals[arc.slot] += value
            if arc.src == request.destination:
                arrivals[arc.slot] -= value
        cumulative = 0.0
        for slot in sorted(arrivals):
            cumulative += arrivals[slot]
            if cumulative >= size_gb - max(VOLUME_ATOL, 1e-9 * size_gb):
                completions[request.destination] = slot
                break

    return MulticastResult(
        schedule=TransferSchedule(entries),
        solution=solution,
        cost_per_slot=solution.objective,
        completions=completions,
    )
