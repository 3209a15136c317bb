"""Budget-constrained transfer admission (Sec. VI, second problem).

"Given a certain budget on costs incurred by inter-datacenter traffic,
what is the maximum number of files that a cloud provider can transfer?"

The LP relaxation transfers fractions ``y_k in [0, 1]`` of each file:
on the Postcard model of all candidates
(:func:`repro.core.formulation.build_postcard_model`) each file's supply
becomes ``F_k * y_k``, the model's own objective — the bill
``sum(a_ij * X_ij)`` — becomes the budget row ``<= B / I``, and the
relaxation maximizes ``sum(y_k)``.  Because files are atomic in
practice, a greedy rounding pass then admits whole files in decreasing
fractional order, re-checking the budget with an exact Postcard solve
at every step; the fractional optimum upper-bounds the integral one, so
the gap is reported alongside the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InfeasibleError, SchedulingError
from repro.core.formulation import build_postcard_model
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.lp import row_matrix, solve_lp
from repro.traffic.spec import TransferRequest


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
    built = build_postcard_model(state, requests)
    bill = built.model
    count = len(requests)
    relaxed = built.supply_columns(
        [r.size_gb for r in requests], np.ones(count), np.ones(count)
    )
    (rows, cols, values), m = relaxed.a_ub.coo(), relaxed.num_inequalities
    billed = np.flatnonzero(bill.c)  # the bill row: sum(a_ij * X_ij) <= budget
    relaxed = replace(
        relaxed,
        a_ub=row_matrix(np.append(rows, np.full(len(billed), m)), np.append(cols, billed),
                        np.append(values, bill.c[billed]), (m + 1, relaxed.num_variables)),
        b_ub=np.append(relaxed.b_ub, budget_per_slot - bill.c0),
    )
    solution = solve_lp(relaxed)
    fractions = solution.x[bill.num_variables:].tolist()
    return solution.objective, {
        r.request_id: y for r, y in zip(requests, fractions)
    }


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
