"""The exact LP for the flow-based model.

Variables ``f[k, (i,j)]`` are the constant rate (GB/slot) of file ``k``
on overlay link (i, j) throughout its window.  Unlike Postcard's
time-expanded LP there is no time index on the flow variables — that is
precisely the baseline's handicap: every active file loads its links in
*every* slot of its window, so peaks cannot be time-shifted.

The objective matches Postcard's: minimize ``sum(a_ij * X_ij)`` with
``X_ij >= X_ij(t-1)`` and per-slot rows
``X_ij >= B_ij(n) + sum_{k active at n} f[k, (i,j)]``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.errors import SchedulingError
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LinExpr, Model, Solution, Variable
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

LinkKey = Tuple[int, int]


class FlowModel:
    """A built (not yet solved) flow-based LP plus its variable maps."""

    def __init__(
        self,
        model: Model,
        requests: List[TransferRequest],
        rate_vars: Dict[Tuple[int, LinkKey], Variable],
        charge_vars: Dict[LinkKey, Variable],
        fixed_charge_cost: float,
    ):
        self.model = model
        self.requests = requests
        self.rate_vars = rate_vars
        self.charge_vars = charge_vars
        self.fixed_charge_cost = fixed_charge_cost

    def solve(self, **options) -> Tuple[TransferSchedule, Solution]:
        """Optimize and expand rates into per-slot fluid entries."""
        solution = self.model.solve(**options)
        by_request = {r.request_id: r for r in self.requests}
        entries = []
        for (request_id, (src, dst)), var in self.rate_vars.items():
            rate = solution.value(var)
            if rate <= VOLUME_ATOL:
                continue
            request = by_request[request_id]
            for slot in range(request.release_slot, request.last_slot + 1):
                entries.append(
                    ScheduleEntry(
                        request_id=request_id,
                        src=src,
                        dst=dst,
                        slot=slot,
                        volume=rate,
                    )
                )
        return TransferSchedule(entries, semantics=SEMANTICS_FLUID), solution


def build_flow_model(
    state: NetworkState,
    requests: List[TransferRequest],
    name: str = "flowbased",
) -> FlowModel:
    """Assemble the flow-based LP for the files released this slot."""
    if not requests:
        raise SchedulingError("build_flow_model needs at least one request")

    topology = state.topology
    model = Model(name)

    rate_vars: Dict[Tuple[int, LinkKey], Variable] = {}
    for request in requests:
        rid = request.request_id
        balance: Dict[int, List[Tuple[float, Variable]]] = defaultdict(list)
        for link in topology.links:
            var = model.add_variable(f"f[{rid},{link.src},{link.dst}]")
            rate_vars[(rid, link.key)] = var
            balance[link.src].append((1.0, var))
            balance[link.dst].append((-1.0, var))
        rate = request.desired_rate
        for node in topology.node_ids():
            net = LinExpr.from_terms(balance.get(node, []))
            if node == request.source:
                model.add_constraint(net == rate, name=f"src[{rid}]")
            elif node == request.destination:
                model.add_constraint(net == -rate, name=f"snk[{rid}]")
            else:
                model.add_constraint(net == 0.0, name=f"cons[{rid},{node}]")

    # Which files are active at which slot, per link-slot rows.
    start = min(r.release_slot for r in requests)
    end = max(r.last_slot for r in requests) + 1

    charge_vars: Dict[LinkKey, Variable] = {}
    objective_terms: List[Tuple[float, Variable]] = []
    fixed_cost = 0.0
    for link in topology.links:
        key = link.key
        prior = state.charged_volume(*key)
        users_by_slot: Dict[int, List[Variable]] = defaultdict(list)
        for request in requests:
            var = rate_vars[(request.request_id, key)]
            for slot in range(request.release_slot, request.last_slot + 1):
                users_by_slot[slot].append(var)

        if not users_by_slot:
            fixed_cost += link.price * prior
            continue

        x = model.add_variable(f"X[{key[0]},{key[1]}]", lb=prior)
        charge_vars[key] = x
        for slot in range(start, end):
            users = users_by_slot.get(slot)
            if not users:
                continue
            committed = state.committed_volume(key[0], key[1], slot)
            load = LinExpr.sum(users)
            model.add_constraint(
                x >= load + committed, name=f"chg[{key[0]},{key[1]},{slot}]"
            )
            residual = state.residual_capacity(key[0], key[1], slot)
            if residual != float("inf"):
                model.add_constraint(
                    load <= residual, name=f"cap[{key[0]},{key[1]},{slot}]"
                )
        objective_terms.append((link.price, x))

    model.minimize(LinExpr.from_terms(objective_terms, constant=fixed_cost))
    return FlowModel(model, list(requests), rate_vars, charge_vars, fixed_cost)
