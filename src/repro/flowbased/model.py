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
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.errors import SchedulingError
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import EQ, GE, LE, CompiledProblem, LPBuilder, Solution, solve_lp
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

LinkKey = Tuple[int, int]
#: A commodity's supply: a constant, or ``(coefficient, column)`` for
#: ``coefficient * x[column]``.
Supply = Union[float, Tuple[float, int]]


def add_link_balance_rows(
    lp: LPBuilder, nodes: Iterable[int], ends: Sequence[LinkKey],
    columns: Sequence[int], source: int, sink: int, supply: Supply,
) -> None:
    """One commodity's conservation, one row per node in ``nodes`` order
    over its rate columns (``columns[i]`` on link ``ends[i]``): net
    outflow is ``supply`` at ``source``, ``-supply`` at ``sink``, 0
    elsewhere.  A node no link touches keeps its row: it holds, or the
    problem is infeasible (a source without links)."""
    balance = {node: ([], []) for node in nodes}
    for (src, dst), col in zip(ends, columns):
        balance[src][0].append(col)
        balance[src][1].append(1.0)
        balance[dst][0].append(col)
        balance[dst][1].append(-1.0)
    for node, (cols, vals) in balance.items():
        rhs = 0.0
        if node in (source, sink):
            sign = 1.0 if node == source else -1.0
            if isinstance(supply, tuple):  # the column's multiple moves left
                coef, col = supply
                cols.append(col)
                vals.append(-sign * coef)
            else:
                rhs = sign * supply
        lp.row(cols, vals, EQ, rhs)


class FlowModel:
    """A built (not yet solved) flow-based LP plus its column maps."""

    def __init__(
        self,
        model: CompiledProblem,
        requests: List[TransferRequest],
        rate_vars: Dict[Tuple[int, LinkKey], int],
        charge_vars: Dict[LinkKey, int],
        fixed_charge_cost: float,
    ):
        self.model = model
        self.requests = requests
        self.rate_vars = rate_vars
        self.charge_vars = charge_vars
        self.fixed_charge_cost = fixed_charge_cost

    def solve(self, **options) -> Tuple[TransferSchedule, Solution]:
        """Optimize and expand rates into per-slot fluid entries."""
        solution = solve_lp(self.model, **options)
        by_request = {r.request_id: r for r in self.requests}
        entries = []
        for (request_id, (src, dst)), var in self.rate_vars.items():
            rate = float(solution.x[var])
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
    lp = LPBuilder(name)
    ends = [link.key for link in topology.links]

    rate_vars: Dict[Tuple[int, LinkKey], int] = {}
    for request in requests:
        rid = request.request_id
        columns = [lp.column((rid, key)) for key in ends]
        rate_vars.update(zip(((rid, key) for key in ends), columns))
        add_link_balance_rows(
            lp, topology.node_ids(), ends, columns,
            request.source, request.destination, request.desired_rate,
        )

    # Which files are active at which slot, per link-slot rows.
    start = min(r.release_slot for r in requests)
    end = max(r.last_slot for r in requests) + 1

    charge_vars: Dict[LinkKey, int] = {}
    fixed_cost = 0.0
    for link in topology.links:
        key = link.key
        prior = state.charged_volume(*key)
        users_by_slot: Dict[int, List[int]] = defaultdict(list)
        for request in requests:
            var = rate_vars[(request.request_id, key)]
            for slot in range(request.release_slot, request.last_slot + 1):
                users_by_slot[slot].append(var)

        if not users_by_slot:
            fixed_cost += link.price * prior
            continue

        x = charge_vars[key] = lp.column(("X", key), lb=prior, cost=link.price)
        for slot in range(start, end):
            users = users_by_slot.get(slot)
            if not users:
                continue
            committed = state.committed_volume(key[0], key[1], slot)
            lp.row([x, *users], [1.0] + [-1.0] * len(users), GE, committed)
            residual = state.residual_capacity(key[0], key[1], slot)
            if residual != float("inf"):
                lp.row(users, 1.0, LE, residual)

    lp.constant = fixed_cost
    return FlowModel(lp.compile(), list(requests), rate_vars, charge_vars, fixed_cost)
