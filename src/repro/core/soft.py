"""Soft deadlines: lateness as a priced constraint instead of a hard one.

The paper's constraint (5) is hard — miss the window, and the problem
is infeasible.  Real SLAs are softer: delivering a backup an hour late
costs goodwill (or contractual penalty), not infinity.  This module
formulates that variant: each file may run up to ``extension`` slots
past its deadline, paying ``lateness_penalty`` dollars per GB per late
slot; the optimizer then trades WAN cost against SLA cost.

With ``extension=0`` this is exactly the hard-deadline LP of
:func:`repro.core.formulation.build_postcard_model`; with a generous
extension and a steep penalty it behaves identically on feasible
instances but *degrades gracefully* on overloaded ones — the use case
that makes the drop policy unnecessary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SchedulingError
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LinExpr, Model, Solution, Variable
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


@dataclass
class SoftDeadlineResult:
    """A solved soft-deadline round."""

    schedule: TransferSchedule
    solution: Solution
    #: GB-slots of lateness per request id (0.0 = fully on time).
    lateness: Dict[int, float]

    @property
    def total_lateness(self) -> float:
        return sum(self.lateness.values())


def build_soft_deadline_model(
    state: NetworkState,
    requests: List[TransferRequest],
    extension: int,
    lateness_penalty: float,
    name: str = "postcard-soft",
) -> Tuple[Model, Dict[Tuple[int, Arc], Variable], TimeExpandedGraph, Dict]:
    """Assemble the lateness-priced LP; see :func:`solve_soft_deadline`."""
    if not requests:
        raise SchedulingError("need at least one request")
    if extension < 0:
        raise SchedulingError("extension must be non-negative")
    if lateness_penalty < 0:
        raise SchedulingError("lateness_penalty must be non-negative")

    start = min(r.release_slot for r in requests)
    end = max(r.release_slot + r.deadline_slots for r in requests) + extension
    graph = TimeExpandedGraph(
        state.topology,
        start_slot=start,
        horizon=end - start,
        capacity_fn=state.residual_capacity,
    )

    model = Model(name)
    flow_vars: Dict[Tuple[int, Arc], Variable] = {}
    arc_users: Dict[Arc, List[Variable]] = defaultdict(list)
    penalty_terms: List[Tuple[float, Variable]] = []
    #: (request_id) -> [(late_slots, var)] for lateness accounting.
    lateness_terms: Dict[int, List[Tuple[float, Variable]]] = defaultdict(list)

    for request in requests:
        rid = request.request_id
        first = request.release_slot
        hard_deadline_layer = request.release_slot + request.deadline_slots
        last_exclusive = hard_deadline_layer + extension
        balance: Dict[Tuple[int, int], List[Tuple[float, Variable]]] = defaultdict(list)
        for arc in graph.arcs:
            if not first <= arc.slot < last_exclusive:
                continue
            if arc.kind is ArcKind.TRANSIT and arc.capacity <= 0:
                continue
            var = model.add_variable(f"M[{rid},{arc.src},{arc.dst},{arc.slot}]")
            flow_vars[(rid, arc)] = var
            if arc.kind is ArcKind.TRANSIT:
                arc_users[arc].append(var)
                # Arrival at the destination after the hard deadline
                # pays per GB per late slot.
                if arc.dst == request.destination:
                    late = max(0, arc.slot + 1 - hard_deadline_layer)
                    if late > 0 and lateness_penalty > 0:
                        penalty_terms.append((lateness_penalty * late, var))
                    if late > 0:
                        lateness_terms[rid].append((float(late), var))
            balance[arc.tail].append((1.0, var))
            balance[arc.head].append((-1.0, var))

        source = (request.source, first)
        sink = (request.destination, last_exclusive)
        if source not in balance:
            raise SchedulingError(
                f"file {rid}: no admissible arc leaves its source"
            )
        for node, terms in balance.items():
            net = LinExpr.from_terms(terms)
            if node == source:
                model.add_constraint(net == request.size_gb, name=f"src[{rid}]")
            elif node == sink:
                model.add_constraint(net == -request.size_gb, name=f"snk[{rid}]")
            else:
                model.add_constraint(net == 0.0, name=f"cons[{rid},{node}]")

    capacity_rows = {}
    for arc, users in arc_users.items():
        if arc.capacity != float("inf"):
            capacity_rows[(arc.src, arc.dst, arc.slot)] = model.add_constraint(
                LinExpr.sum(users) <= arc.capacity,
                name=f"cap[{arc.src},{arc.dst},{arc.slot}]",
            )

    by_link: Dict[Tuple[int, int], Dict[int, List[Variable]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for arc, users in arc_users.items():
        by_link[arc.link_key][arc.slot].extend(users)

    objective_terms: List[Tuple[float, Variable]] = list(penalty_terms)
    fixed_cost = 0.0
    for link in state.topology.links:
        key = link.key
        prior = state.charged_volume(*key)
        if key not in by_link:
            fixed_cost += link.price * prior
            continue
        x = model.add_variable(f"X[{key[0]},{key[1]}]", lb=prior)
        for slot, users in by_link[key].items():
            committed = state.committed_volume(key[0], key[1], slot)
            model.add_constraint(
                x >= LinExpr.sum(users) + committed, name=f"chg[{key},{slot}]"
            )
        objective_terms.append((link.price, x))

    model.minimize(LinExpr.from_terms(objective_terms, constant=fixed_cost))
    return model, flow_vars, graph, lateness_terms


def solve_soft_deadline(
    state: NetworkState,
    requests: List[TransferRequest],
    extension: int = 2,
    lateness_penalty: float = 10.0,
) -> SoftDeadlineResult:
    """Optimize with priced lateness; returns schedule + lateness report.

    The returned schedule may move data after file deadlines — audit it
    with ``schedule.validate(requests, deadline_slack=extension)``.
    """
    model, flow_vars, _graph, lateness_terms = build_soft_deadline_model(
        state, requests, extension, lateness_penalty
    )
    solution = model.solve()

    destination_of = {r.request_id: r.destination for r in requests}
    entries = []
    for (rid, arc), var in flow_vars.items():
        volume = solution.value(var)
        if volume <= VOLUME_ATOL:
            continue
        # Holdover at a file's own destination is delivered data riding
        # to the (extended) sink layer — bookkeeping, not scheduling.
        if arc.kind is ArcKind.HOLDOVER and arc.src == destination_of[rid]:
            continue
        entries.append(
            ScheduleEntry(rid, arc.src, arc.dst, arc.slot, volume, arc.kind)
        )
    lateness = {
        rid: sum(late * solution.value(var) for late, var in terms)
        for rid, terms in lateness_terms.items()
    }
    for request in requests:
        lateness.setdefault(request.request_id, 0.0)
    return SoftDeadlineResult(
        schedule=TransferSchedule(entries),
        solution=solution,
        lateness={rid: max(0.0, v) for rid, v in lateness.items()},
    )
