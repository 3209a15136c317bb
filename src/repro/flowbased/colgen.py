"""Column generation (Dantzig-Wolfe) for the flow-based LP.

The arc-based flow LP of :mod:`repro.flowbased.model` has
``files x links`` variables; at datacenter-fleet scale the classic
remedy is a *path-based* master problem with pricing:

* the restricted master holds a few explicit paths per file plus the
  charge variables ``X_ij``, all constraints written as LE/EQ so the
  HiGHS duals follow one convention;
* the pricing subproblem per file is a shortest-path computation under
  link weights derived from the capacity- and charge-row duals; a path
  with negative reduced cost enters the master;
* iteration stops when no file prices out, which certifies optimality
  of the master over *all* paths (LP duality).

The test suite pins the result to the arc-based LP's objective, making
this both a scalability tool and an independent correctness check of
the flow formulation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.errors import InfeasibleError, SchedulingError, SolverError
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LinExpr, Model, Variable
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

LinkKey = Tuple[int, int]
Path = Tuple[int, ...]  # node sequence


@dataclass
class ColGenResult:
    """Outcome of a column-generation solve."""

    schedule: TransferSchedule
    objective: float
    iterations: int
    columns_generated: int
    #: paths (with rates) chosen per request id.
    paths: Dict[int, List[Tuple[Path, float]]]


def _path_links(path: Path) -> List[LinkKey]:
    return list(zip(path, path[1:]))


def _initial_paths(
    state: NetworkState, request: TransferRequest
) -> List[Path]:
    """Seed columns: the cheapest price path plus the direct link."""
    graph = state.topology.to_networkx()
    paths: List[Path] = []
    try:
        cheapest = nx.shortest_path(
            graph, request.source, request.destination, weight="price"
        )
        paths.append(tuple(cheapest))
    except nx.NetworkXNoPath:
        raise InfeasibleError(
            f"no path from {request.source} to {request.destination}"
        ) from None
    if state.topology.has_link(request.source, request.destination):
        direct = (request.source, request.destination)
        if direct not in paths:
            paths.append(direct)
    return paths


def solve_flow_column_generation(
    state: NetworkState,
    requests: List[TransferRequest],
    max_iterations: int = 200,
    tolerance: float = 1e-7,
) -> ColGenResult:
    """Solve the flow-based cost minimization by path pricing."""
    if not requests:
        raise SchedulingError("column generation needs at least one request")
    topology = state.topology

    columns: Dict[int, List[Path]] = {
        r.request_id: _initial_paths(state, r) for r in requests
    }
    active_slots = {
        r.request_id: list(range(r.release_slot, r.last_slot + 1)) for r in requests
    }

    total_columns = sum(len(c) for c in columns.values())
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise SolverError("column generation did not converge")

        master, path_vars, demand_rows, cap_rows, chg_rows, slack_vars = _build_master(
            state, requests, columns, active_slots
        )
        solution = master.solve()

        # Pricing: per-link weight = -(sum of duals of the LE rows a
        # unit of path flow on that link would hit).  All those duals
        # are <= 0 in a minimization, so weights are >= 0 and Dijkstra
        # applies.  A path enters iff  weight(path) < dual(demand_k).
        improved = False
        for request in requests:
            rid = request.request_id
            weights: Dict[LinkKey, float] = {}
            for link in topology.links:
                weight = 0.0
                for slot in active_slots[rid]:
                    row = cap_rows.get((link.key, slot))
                    if row is not None:
                        weight -= solution.dual(row)
                    row = chg_rows.get((link.key, slot))
                    if row is not None:
                        weight -= solution.dual(row)
                weights[link.key] = max(0.0, weight)

            graph = nx.DiGraph()
            graph.add_nodes_from(topology.node_ids())
            for link in topology.links:
                graph.add_edge(link.src, link.dst, w=weights[link.key])
            try:
                best = nx.shortest_path(
                    graph, request.source, request.destination, weight="w"
                )
            except nx.NetworkXNoPath:  # pragma: no cover - seeded above
                continue
            best_weight = sum(weights[key] for key in _path_links(tuple(best)))
            sigma = solution.dual(demand_rows[rid])
            if best_weight < sigma - tolerance:
                candidate = tuple(best)
                if candidate not in columns[rid]:
                    columns[rid].append(candidate)
                    total_columns += 1
                    improved = True

        if not improved:
            residual_slack = sum(
                solution.value(slack) for slack in slack_vars.values()
            )
            if residual_slack > 1e-6:
                raise InfeasibleError(
                    "flow-based problem is infeasible: "
                    f"{residual_slack:g} GB/slot of demand unroutable"
                )
            break

    # Final extraction from the last master solution.
    paths_out: Dict[int, List[Tuple[Path, float]]] = defaultdict(list)
    entries: List[ScheduleEntry] = []
    for (rid, path), var in path_vars.items():
        rate = solution.value(var)
        if rate <= VOLUME_ATOL:
            continue
        paths_out[rid].append((path, rate))
        request = next(r for r in requests if r.request_id == rid)
        for src, dst in _path_links(path):
            for slot in active_slots[rid]:
                entries.append(ScheduleEntry(rid, src, dst, slot, rate))

    return ColGenResult(
        schedule=TransferSchedule(entries, semantics=SEMANTICS_FLUID),
        objective=solution.objective,
        iterations=iterations,
        columns_generated=total_columns,
        paths=dict(paths_out),
    )


def _build_master(
    state: NetworkState,
    requests: List[TransferRequest],
    columns: Dict[int, List[Path]],
    active_slots: Dict[int, List[int]],
):
    """The restricted master over the current columns.

    All rows are EQ or LE so every dual follows one sign convention.
    """
    topology = state.topology
    model = Model("colgen_master")

    path_vars: Dict[Tuple[int, Path], Variable] = {}
    for request in requests:
        rid = request.request_id
        for path in columns[rid]:
            path_vars[(rid, path)] = model.add_variable(
                f"f[{rid},{'-'.join(map(str, path))}]"
            )

    # Big-M feasibility slack: the seed columns alone may not be able
    # to carry a file's rate (shared bottlenecks), yet the full path
    # set can — pricing needs a feasible master to produce the duals
    # that discover those paths.  Positive slack at convergence means
    # genuine infeasibility.
    big_m = 1e5 * max(link.price for link in topology.links)
    slack_vars: Dict[int, Variable] = {}
    demand_rows = {}
    for request in requests:
        rid = request.request_id
        slack = model.add_variable(f"slack[{rid}]")
        slack_vars[rid] = slack
        total = LinExpr.sum(
            path_vars[(rid, path)] for path in columns[rid]
        )
        demand_rows[rid] = model.add_constraint(
            total + slack == request.desired_rate, name=f"dem[{rid}]"
        )

    # Per (link, slot): which path variables load it.
    users: Dict[Tuple[LinkKey, int], List[Variable]] = defaultdict(list)
    for request in requests:
        rid = request.request_id
        for path in columns[rid]:
            var = path_vars[(rid, path)]
            for key in _path_links(path):
                for slot in active_slots[rid]:
                    users[(key, slot)].append(var)

    cap_rows = {}
    chg_rows = {}
    objective_terms: List[Tuple[float, Variable]] = []
    fixed_cost = 0.0
    touched_links = {key for key, _slot in users}
    for link in topology.links:
        prior = state.charged_volume(*link.key)
        if link.key not in touched_links:
            fixed_cost += link.price * prior
            continue
        x = model.add_variable(f"X[{link.src},{link.dst}]", lb=prior)
        objective_terms.append((link.price, x))
        for (key, slot), vars_here in users.items():
            if key != link.key:
                continue
            committed = state.committed_volume(key[0], key[1], slot)
            load = LinExpr.sum(vars_here)
            residual = state.residual_capacity(key[0], key[1], slot)
            if residual != float("inf"):
                cap_rows[(key, slot)] = model.add_constraint(
                    load <= residual, name=f"cap[{key},{slot}]"
                )
            chg_rows[(key, slot)] = model.add_constraint(
                load - x <= -committed, name=f"chg[{key},{slot}]"
            )

    slack_terms = [(big_m, slack) for slack in slack_vars.values()]
    model.minimize(
        LinExpr.from_terms(objective_terms + slack_terms, constant=fixed_cost)
    )
    return model, path_vars, demand_rows, cap_rows, chg_rows, slack_vars
