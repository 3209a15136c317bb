"""Lagrangian dual lower bounds by projected subgradient.

Sec. V notes the Postcard problem can be attacked with "subgradient
projection methods"; this module implements that idea in its most
useful form for a reproduction: a *certifiable lower bound* on the
optimal cost that needs no LP solver at all.

Relax every ``a_ub`` row of :func:`~repro.core.formulation.build_postcard_model`
(capacity ``load_e(n) <= cap_e(n)`` and charge ``load_e(n) - X_e <=
-committed_e(n)``) with a multiplier ``mu_r >= 0``.  The Lagrangian
``c0 - mu.b_ub + min (c + a_ub^T mu).x`` decomposes: an ``X_e`` column
is bounded iff its reduced cost ``a_e - sum_n mu_en`` is non-negative
(the projection) and then sits at its lower bound ``X_e(t-1)``; each
file's part is a **shortest path over its flow columns** under the
reduced costs, a layer-by-layer dynamic program.  Weak duality makes
every iterate's dual value a true lower bound; projected subgradient
ascent tightens it.  Its value at scale is certifying heuristic
schedules (greedy, two-phase) without solving the LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import InfeasibleError, SchedulingError
from repro.core.formulation import PostcardModel, build_postcard_model
from repro.core.state import NetworkState
from repro.net.topology import Topology
from repro.traffic.spec import TransferRequest


@dataclass
class DualBoundResult:
    """Outcome of the subgradient ascent."""

    #: The best (largest) certified lower bound found.
    lower_bound: float
    #: Dual value per iteration (non-monotone; best is tracked).
    trajectory: List[float]
    iterations: int


class FileRoutes:
    """Each file's cheapest route over its flow columns, by layered DP.

    A flow column runs from its tail balance row (its ``+1`` in
    ``a_eq``) to its head row (its ``-1``).  Columns are relaxed by
    slot, then tail node in topology order, transit columns (in link
    order) before holdover; a route changes only on a strict
    improvement, so ties keep the first route found.
    """

    def __init__(self, topology: Topology, model: PostcardModel):
        problem = model.model
        _, src, _, slot, transit = model.flow_columns
        row, col, data = problem.a_eq.coo()
        out = data > 0
        tail = np.empty(len(src), dtype=np.int64)
        head = np.empty(len(src), dtype=np.int64)
        tail[col[out]] = row[out]
        head[col[~out]] = row[~out]
        rank = {node: at for at, node in enumerate(topology.node_ids())}
        tail_rank = [rank[node] for node in src.tolist()]
        order = np.lexsort((np.arange(len(src)), ~transit, tail_rank, slot))
        self._steps = list(zip(order.tolist(), tail[order].tolist(), head[order].tolist()))
        self._tail = tail.tolist()
        ends = np.empty((len(model.requests), 2), dtype=np.int64)
        for side, rows in enumerate((problem.b_eq > 0, problem.b_eq < 0)):
            ends[model.balance_nodes[0][rows], side] = np.flatnonzero(rows)
        self._files = list(zip(model.requests, ends.tolist()))
        self.num_rows = problem.num_equalities

    def cheapest(self, costs: np.ndarray) -> Tuple[List[float], np.ndarray]:
        """Per-GB cost of each file's cheapest route under the flow
        columns' ``costs``, and each column's volume with every file's
        size on its route.  :class:`InfeasibleError` if a sink is out of
        reach."""
        costs, inf = costs.tolist(), float("inf")
        dist, parent = [inf] * self.num_rows, [-1] * self.num_rows
        for _, (source, _) in self._files:
            dist[source] = 0.0
        for column, tail, head in self._steps:
            cost = dist[tail] + costs[column]  # inf while the tail is unreached
            if cost < dist[head] - 1e-15:
                dist[head], parent[head] = cost, column
        per_gb, volumes = [], np.zeros(len(costs))
        for request, (source, row) in self._files:
            if dist[row] == inf:
                raise InfeasibleError(f"file {request.request_id} cannot reach "
                                      "its destination within its window")
            per_gb.append(dist[row])
            while row != source:
                volumes[parent[row]] += request.size_gb
                row = self._tail[parent[row]]
        return per_gb, volumes


def dual_lower_bound(
    state: NetworkState,
    requests: List[TransferRequest],
    iterations: int = 150,
    step_scale: float = 1.0,
) -> DualBoundResult:
    """Projected-subgradient lower bound on the Sec. V optimum."""
    if not requests:
        raise SchedulingError("dual_lower_bound needs at least one request")
    if iterations < 1:
        raise SchedulingError("iterations must be >= 1")

    model = build_postcard_model(state, requests)
    problem, routes = model.model, FileRoutes(state.topology, model)
    b_ub, c = problem.b_ub, problem.c
    row, col, data = problem.a_ub.coo()  # the matvecs below sum entries in this order
    num_flows = len(model.flow_columns[0])
    floor = problem.bounds[:, 0]  # flows at 0, each X_ij at X_ij(t-1)
    charged = col >= num_flows  # the X_ij columns' charge (and cost) rows
    charge_row, charge_col = row[charged], col[charged] - num_flows
    prices = c[num_flows:]
    price_scale = float(np.mean([link.price for link in state.topology.links]))

    mu = np.zeros(problem.num_inequalities)
    best = -float("inf")
    trajectory: List[float] = []
    for k in range(1, iterations + 1):
        reduced = c + np.bincount(col, weights=data * mu[row], minlength=len(c))
        x = floor.copy()
        _, x[:num_flows] = routes.cheapest(reduced[:num_flows])
        dual_value = problem.c0 + float(reduced @ x) - float(mu @ b_ub)
        trajectory.append(dual_value)
        best = max(best, dual_value)

        # Each row's violation is the subgradient; norm-normalized
        # diminishing steps (gamma_k = c / (||g|| sqrt(k))), since raw
        # loads can be orders of magnitude above the price scale.
        g = np.bincount(row, weights=data * x[col], minlength=len(b_ub)) - b_ub
        norm = max(float(np.sqrt((g ** 2).sum())), 1e-12)
        step = step_scale * price_scale / (norm * np.sqrt(k))
        mu = np.maximum(0.0, mu + step * g)
        # Project: scale an X_ij column's charge rows down to its price.
        spent = np.bincount(charge_col, weights=mu[charge_row], minlength=len(prices))
        over = spent > prices
        if np.any(over):
            scale = np.ones_like(spent)
            scale[over] = prices[over] / spent[over]
            mu[charge_row] *= scale[charge_col]

    return DualBoundResult(lower_bound=best, trajectory=trajectory, iterations=iterations)
