"""Soft deadlines: lateness as a priced constraint instead of a hard one.

The paper's constraint (5) is hard — miss the window, and the problem
is infeasible.  Real SLAs are softer: delivering a backup an hour late
costs goodwill (or contractual penalty), not infinity.  This module
formulates that variant: each file may run up to ``extension`` slots
past its deadline, paying ``lateness_penalty`` dollars per GB per late
slot; the optimizer then trades WAN cost against SLA cost.

What this module owns on top of :mod:`repro.core.flowlp`: each file's
window reaches ``extension`` slots past its deadline, its supply sits
at the source layer and its demand at the extended sink layer, and the
objective is the bill plus the lateness terms.

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
from repro.core.flowlp import (
    Users, add_balance_rows, add_capacity_rows, add_charge_rows, add_flows,
    flow_schedule, window_graph,
)
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.lp import CompiledProblem, LPBuilder, Solution, solve_lp
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph
from repro.traffic.spec import TransferRequest


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
) -> Tuple[CompiledProblem, Dict[Tuple[int, Arc], int], TimeExpandedGraph, Dict]:
    """Assemble the lateness-priced LP; see :func:`solve_soft_deadline`."""
    if not requests:
        raise SchedulingError("need at least one request")
    if extension < 0:
        raise SchedulingError("extension must be non-negative")
    if lateness_penalty < 0:
        raise SchedulingError("lateness_penalty must be non-negative")

    graph = window_graph(
        state.topology, requests, state.residual_capacity, extension
    )

    lp = LPBuilder(name)
    flow_vars: Dict[Tuple[int, Arc], int] = {}
    users: Users = defaultdict(list)
    penalty_cols: List[int] = []
    penalty_vals: List[float] = []
    #: (request_id) -> [(late_slots, column)] for lateness accounting.
    lateness_terms: Dict[int, List[Tuple[float, int]]] = defaultdict(list)

    for request in requests:
        rid = request.request_id
        first = request.release_slot
        hard_deadline_layer = request.release_slot + request.deadline_slots
        last_exclusive = hard_deadline_layer + extension
        columns, balance = add_flows(
            lp, rid,
            (a for a in graph.arcs if first <= a.slot < last_exclusive), users,
        )
        for arc, var in columns.items():
            flow_vars[(rid, arc)] = var
            # Arrival at the destination after the hard deadline pays
            # per GB per late slot.
            late = arc.slot + 1 - hard_deadline_layer
            arrives = arc.kind is ArcKind.TRANSIT and arc.dst == request.destination
            if arrives and late > 0:
                if lateness_penalty > 0:
                    penalty_cols.append(var)
                    penalty_vals.append(lateness_penalty * late)
                lateness_terms[rid].append((float(late), var))

        source, sink = (request.source, first), (request.destination, last_exclusive)
        if source not in balance:
            raise SchedulingError(
                f"file {rid}: no admissible arc leaves its source"
            )
        add_balance_rows(lp, balance, lambda node: (
            request.size_gb if node == source
            else -request.size_gb if node == sink else 0.0
        ))

    add_capacity_rows(lp, users)
    charged, prices, fixed_cost = add_charge_rows(
        lp, state.topology, users, state.charged_volume, state.committed_volume
    )
    lp.objective(penalty_cols + charged, penalty_vals + prices, fixed_cost)
    return lp.compile(), flow_vars, graph, lateness_terms


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
    problem, flow_vars, _graph, lateness_terms = build_soft_deadline_model(
        state, requests, extension, lateness_penalty
    )
    solution = solve_lp(problem)

    destination_of = {r.request_id: r.destination for r in requests}
    # Holdover at a file's own destination is delivered data riding to
    # the (extended) sink layer — bookkeeping, not storage.
    schedule = flow_schedule(
        (rid, arc, float(solution.x[var])) for (rid, arc), var in flow_vars.items()
        if arc.kind is ArcKind.TRANSIT or arc.src != destination_of[rid]
    )
    lateness = {
        rid: sum(late * float(solution.x[var]) for late, var in terms)
        for rid, terms in lateness_terms.items()
    }
    for request in requests:
        lateness.setdefault(request.request_id, 0.0)
    return SoftDeadlineResult(
        schedule=schedule,
        solution=solution,
        lateness={rid: max(0.0, v) for rid, v in lateness.items()},
    )
