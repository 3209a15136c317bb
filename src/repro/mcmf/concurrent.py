"""Maximum concurrent flow.

Given commodities ``(source_k, sink_k, demand_k)`` on a shared
capacitated graph, find the largest ``lambda`` such that
``lambda * demand_k`` of every commodity can be routed simultaneously.
This is the first sub-problem of the paper's flow-based decomposition
(Sec. II-B): route as much traffic as possible inside the already-paid
headroom before spending money on new peaks.

Solved as an LP on the shared graph — the natural formulation, and at
the scale of inter-datacenter overlays it is instant.  A single
commodity degenerates to max-flow, which the tests cross-check against
Dinic.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.errors import TopologyError
from repro.lp import LinExpr, Model

Edge = Tuple[int, int, float]  # (src, dst, capacity)
Commodity = Tuple[int, int, float]  # (source, sink, demand)


def max_concurrent_flow(
    num_nodes: int,
    edges: Sequence[Edge],
    commodities: Sequence[Commodity],
    cap_lambda: float = float("inf"),
) -> Tuple[float, List[Dict[Tuple[int, int], float]]]:
    """Maximize the common served fraction ``lambda``.

    Returns ``(lambda, flows)`` where ``flows[k]`` maps edge keys to the
    flow carried for commodity ``k``.  ``cap_lambda`` bounds the
    fraction (the flow-based baseline caps it at 1: there is no point
    routing more than each file's desired rate).
    """
    if not commodities:
        raise TopologyError("need at least one commodity")
    for src, dst, demand in commodities:
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            raise TopologyError(f"commodity ({src},{dst}) out of range")
        if src == dst:
            raise TopologyError("commodity source equals sink")
        if demand <= 0:
            raise TopologyError(f"commodity demand must be positive, got {demand}")

    model = Model("max_concurrent_flow")
    lam = model.add_variable(
        "lambda", lb=0.0, ub=None if cap_lambda == float("inf") else cap_lambda
    )

    # Per-commodity flow variables on every edge.
    edge_vars = []
    for k in range(len(commodities)):
        per_edge = {}
        for e, (src, dst, cap) in enumerate(edges):
            if cap < 0:
                raise TopologyError(f"edge ({src},{dst}) has negative capacity")
            per_edge[e] = model.add_variable(f"f[{k},{src},{dst},{e}]")
        edge_vars.append(per_edge)

    # Shared capacity.
    for e, (src, dst, cap) in enumerate(edges):
        if cap != float("inf"):
            model.add_constraint(
                LinExpr.sum(edge_vars[k][e] for k in range(len(commodities))) <= cap,
                name=f"cap[{e}]",
            )

    # Conservation with demand scaled by lambda.
    for k, (source, sink, demand) in enumerate(commodities):
        balance = defaultdict(list)
        for e, (src, dst, _cap) in enumerate(edges):
            balance[src].append((1.0, edge_vars[k][e]))
            balance[dst].append((-1.0, edge_vars[k][e]))
        for node in range(num_nodes):
            net = LinExpr.from_terms(balance.get(node, []))
            if node == source:
                model.add_constraint(net - demand * lam == 0.0, name=f"src[{k}]")
            elif node == sink:
                model.add_constraint(net + demand * lam == 0.0, name=f"snk[{k}]")
            else:
                model.add_constraint(net == 0.0, name=f"cons[{k},{node}]")

    model.maximize(lam)
    solution = model.solve()

    lam_value = solution.value(lam)
    flows: List[Dict[Tuple[int, int], float]] = []
    for k in range(len(commodities)):
        per_key: Dict[Tuple[int, int], float] = defaultdict(float)
        for e, (src, dst, _cap) in enumerate(edges):
            value = solution.value(edge_vars[k][e])
            if value > 1e-9:
                per_key[(src, dst)] += value
        flows.append(dict(per_key))
    return lam_value, flows
