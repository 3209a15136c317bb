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

from repro.errors import InfeasibleError, SchedulingError, SolverError
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.heuristic.paths import adjacency, cheapest_paths
from repro.lp import EQ, LE, LPBuilder, solve_lp
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
    state: NetworkState, priced, request: TransferRequest
) -> List[Path]:
    """Seed columns: the cheapest price path (over the ``priced``
    adjacency) plus the direct link."""
    cheapest = cheapest_paths(*priced, request.source, request.destination, k=1)
    if not cheapest:
        raise InfeasibleError(
            f"no path from {request.source} to {request.destination}"
        )
    paths: List[Path] = [tuple(cheapest[0])]
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
    nodes = topology.node_ids()
    priced = adjacency(nodes, ((link.src, link.dst, link.price) for link in topology.links))

    columns: Dict[int, List[Path]] = {
        r.request_id: _initial_paths(state, priced, r) for r in requests
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
        solution = solve_lp(master)
        duals = master.duals(solution).tolist()

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
                        weight -= duals[row]
                    row = chg_rows.get((link.key, slot))
                    if row is not None:
                        weight -= duals[row]
                weights[link.key] = max(0.0, weight)

            best = cheapest_paths(
                *adjacency(nodes, ((*key, weight) for key, weight in weights.items())),
                request.source, request.destination, k=1,
            )[0]  # a path exists: the seed found one
            best_weight = sum(weights[key] for key in _path_links(tuple(best)))
            sigma = duals[demand_rows[rid]]
            if best_weight < sigma - tolerance:
                candidate = tuple(best)
                if candidate not in columns[rid]:
                    columns[rid].append(candidate)
                    total_columns += 1
                    improved = True

        if not improved:
            residual_slack = sum(
                float(solution.x[slack]) for slack in slack_vars.values()
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
        rate = float(solution.x[var])
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
    lp = LPBuilder("colgen_master")

    path_vars: Dict[Tuple[int, Path], int] = {}
    for request in requests:
        rid = request.request_id
        for path in columns[rid]:
            path_vars[(rid, path)] = lp.column((rid, path))

    # Big-M feasibility slack: the seed columns alone may not be able
    # to carry a file's rate (shared bottlenecks), yet the full path
    # set can — pricing needs a feasible master to produce the duals
    # that discover those paths.  Positive slack at convergence means
    # genuine infeasibility.
    big_m = 1e5 * max(link.price for link in topology.links)
    slack_vars: Dict[int, int] = {}
    demand_rows = {}
    for request in requests:
        rid = request.request_id
        slack = slack_vars[rid] = lp.column(("slack", rid), cost=big_m)
        demand_rows[rid] = lp.row(
            [path_vars[(rid, path)] for path in columns[rid]] + [slack], 1.0,
            EQ, request.desired_rate,
        )

    # Per (link, slot): which path variables load it.
    users: Dict[Tuple[LinkKey, int], List[int]] = defaultdict(list)
    for request in requests:
        rid = request.request_id
        for path in columns[rid]:
            var = path_vars[(rid, path)]
            for key in _path_links(path):
                for slot in active_slots[rid]:
                    users[(key, slot)].append(var)

    cap_rows = {}
    chg_rows = {}
    fixed_cost = 0.0
    touched_links = {key for key, _slot in users}
    for link in topology.links:
        prior = state.charged_volume(*link.key)
        if link.key not in touched_links:
            fixed_cost += link.price * prior
            continue
        x = lp.column(("X", link.key), lb=prior, cost=link.price)
        for (key, slot), vars_here in users.items():
            if key != link.key:
                continue
            committed = state.committed_volume(key[0], key[1], slot)
            residual = state.residual_capacity(key[0], key[1], slot)
            if residual != float("inf"):
                cap_rows[(key, slot)] = lp.row(vars_here, 1.0, LE, residual)
            chg_rows[(key, slot)] = lp.row(
                vars_here + [x], [1.0] * len(vars_here) + [-1.0], LE, -committed
            )

    lp.constant = fixed_cost
    return lp.compile(), path_vars, demand_rows, cap_rows, chg_rows, slack_vars
