"""Budget-constrained transfer admission (Sec. VI, second problem).

"Given a certain budget on costs incurred by inter-datacenter traffic,
what is the maximum number of files that a cloud provider can transfer?"

The LP relaxation transfers fractions ``y_k in [0, 1]`` of each file,
maximizes ``sum(y_k)`` subject to the Postcard charge structure and the
budget ``sum(a_ij * X_ij) * I <= B``.  Because files are atomic in
practice, a greedy rounding pass then admits whole files in decreasing
fractional order, re-checking the budget with an exact Postcard solve
at every step; the fractional optimum upper-bounds the integral one, so
the gap is reported alongside the result.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import InfeasibleError, SchedulingError
from repro.core.formulation import build_postcard_model
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LinExpr, Model, Variable
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


@dataclass
class BudgetResult:
    """Outcome of budget-constrained admission."""

    #: Files admitted by the greedy rounding (all-or-nothing).
    admitted: List[TransferRequest]
    #: Their committed schedule (None when nothing was admitted).
    schedule: Optional[TransferSchedule]
    #: Cost per slot of the admitted set.
    cost_per_slot: float
    #: Fractional files transferred by the LP relaxation (upper bound).
    fractional_optimum: float
    #: Fractions y_k of the relaxation, per request id.
    fractions: Dict[int, float]

    @property
    def admitted_count(self) -> int:
        return len(self.admitted)


def _fractional_relaxation(
    state: NetworkState,
    requests: List[TransferRequest],
    budget_per_slot: float,
) -> Tuple[float, Dict[int, float]]:
    """Solve the y_k in [0,1] relaxation; returns (objective, fractions)."""
    start = min(r.release_slot for r in requests)
    end = max(r.release_slot + r.deadline_slots for r in requests)
    graph = TimeExpandedGraph(
        state.topology,
        start_slot=start,
        horizon=end - start,
        capacity_fn=state.residual_capacity,
    )

    model = Model("budget_relaxation")
    arc_users: Dict[Arc, List[Variable]] = defaultdict(list)
    fraction_vars: Dict[int, Variable] = {}

    for request in requests:
        rid = request.request_id
        balance: Dict[Tuple[int, int], List[Tuple[float, Variable]]] = defaultdict(list)
        for arc in graph.arcs_for_request(request):
            if arc.kind is ArcKind.TRANSIT and arc.capacity <= 0:
                continue
            var = model.add_variable(f"M[{rid},{arc.src},{arc.dst},{arc.slot}]")
            if arc.kind is ArcKind.TRANSIT:
                arc_users[arc].append(var)
            balance[arc.tail].append((1.0, var))
            balance[arc.head].append((-1.0, var))

        y = model.add_variable(f"y[{rid}]", lb=0.0, ub=1.0)
        fraction_vars[rid] = y
        source = graph.source_node(request)
        sink = graph.sink_node(request)
        for node, terms in balance.items():
            net = LinExpr.from_terms(terms)
            if node == source:
                model.add_constraint(
                    net - request.size_gb * y == 0.0, name=f"src[{rid}]"
                )
            elif node == sink:
                model.add_constraint(
                    net + request.size_gb * y == 0.0, name=f"snk[{rid}]"
                )
            else:
                model.add_constraint(net == 0.0, name=f"cons[{rid},{node[0]},{node[1]}]")

    for arc, users in arc_users.items():
        if arc.capacity != float("inf"):
            model.add_constraint(
                LinExpr.sum(users) <= arc.capacity,
                name=f"cap[{arc.src},{arc.dst},{arc.slot}]",
            )

    # Charge structure + budget.
    by_link: Dict[Tuple[int, int], Dict[int, List[Variable]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for arc, users in arc_users.items():
        by_link[arc.link_key][arc.slot].extend(users)

    budget_terms: List[Tuple[float, Variable]] = []
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
                x >= LinExpr.sum(users) + committed,
                name=f"chg[{key[0]},{key[1]},{slot}]",
            )
        budget_terms.append((link.price, x))

    model.add_constraint(
        LinExpr.from_terms(budget_terms, constant=fixed_cost) <= budget_per_slot,
        name="budget",
    )
    model.maximize(LinExpr.sum(fraction_vars.values()))
    solution = model.solve()
    fractions = {rid: solution.value(var) for rid, var in fraction_vars.items()}
    return solution.objective, fractions


def maximize_transfers_under_budget(
    state: NetworkState,
    requests: List[TransferRequest],
    budget_per_slot: float,
) -> BudgetResult:
    """Admit as many whole files as the per-slot budget allows.

    ``budget_per_slot`` is ``B / I`` in the paper's notation: the
    largest tolerable value of ``sum(a_ij * X_ij)``.  The state is NOT
    mutated; callers commit the returned schedule themselves if they
    accept the admission decision.
    """
    if not requests:
        raise SchedulingError("need at least one candidate request")
    if budget_per_slot < state.current_cost_per_slot() - 1e-9:
        raise SchedulingError(
            "budget is below the cost already committed "
            f"({budget_per_slot:g} < {state.current_cost_per_slot():g})"
        )

    frac_opt, fractions = _fractional_relaxation(
        state, requests, budget_per_slot
    )

    # Greedy rounding: try files in decreasing fractional value; a file
    # is kept if the exact Postcard optimum of the kept set fits the
    # budget.
    order = sorted(requests, key=lambda r: fractions[r.request_id], reverse=True)
    admitted: List[TransferRequest] = []
    best_schedule: Optional[TransferSchedule] = None
    best_cost = state.current_cost_per_slot()
    for candidate in order:
        if fractions[candidate.request_id] <= 1e-9:
            break
        trial = admitted + [candidate]
        try:
            built = build_postcard_model(state, trial)
            schedule, solution = built.solve()
        except InfeasibleError:
            continue
        if solution.objective <= budget_per_slot + 1e-6:
            admitted = trial
            best_schedule = schedule
            best_cost = solution.objective

    return BudgetResult(
        admitted=admitted,
        schedule=best_schedule,
        cost_per_slot=best_cost,
        fractional_optimum=frac_opt,
        fractions=fractions,
    )
