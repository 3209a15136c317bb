"""The paper's two-phase decomposition of the flow-based problem.

Sec. II-B proposes solving the flow-based cost minimization as two
sequential sub-problems:

1. **Maximum concurrent flow** over the *already-paid headroom*: on each
   link, traffic up to the charged volume ``X_ij(t-1)`` is free for the
   rest of the period, so first push the largest common fraction
   ``lambda`` of every file's desired rate through that free capacity.
2. **Minimum-cost multicommodity flow** for the remaining
   ``(1 - lambda) * r_k`` of every file, over residual capacity, paying
   ``a_ij`` per unit of added rate.

Both sub-problems are solved exactly (as LPs); the decomposition itself
is the heuristic — phase 2's linear cost treats every added unit of
rate as chargeable even when several files could share one new peak, so
the exact LP of :mod:`repro.flowbased.model` never does worse.  The
benchmark suite compares the two variants.

Windows are handled conservatively: the shared free/residual capacity
of a link is its minimum over the union of all files' windows.

Phase 1 is :func:`max_concurrent_flow`: given commodities ``(source_k,
sink_k, demand_k)`` on a shared capacitated graph, the largest
``lambda`` such that ``lambda * demand_k`` of every commodity can be
routed at once, solved as an LP on that graph (instant at the scale of
inter-datacenter overlays).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.errors import SchedulingError, TopologyError
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.flowbased.model import add_link_balance_rows
from repro.lp import LE, LPBuilder, solve_lp
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

LinkKey = Tuple[int, int]
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
    for src, dst, cap in edges:
        if cap < 0:
            raise TopologyError(f"edge ({src},{dst}) has negative capacity")

    lp = LPBuilder("max_concurrent_flow")
    lam = lp.column("lambda", ub=None if cap_lambda == float("inf") else cap_lambda)
    lp.objective([lam], [1.0], maximize=True)
    # Per-commodity flow columns on every edge.
    columns = [[lp.column((k, e)) for e in range(len(edges))]
               for k in range(len(commodities))]
    # Shared capacity.
    for e, (_src, _dst, cap) in enumerate(edges):
        if cap != float("inf"):
            lp.row([per_edge[e] for per_edge in columns], 1.0, LE, cap)
    # Conservation with demand scaled by lambda.
    ends = [(src, dst) for src, dst, _cap in edges]
    for per_edge, (source, sink, demand) in zip(columns, commodities):
        add_link_balance_rows(
            lp, range(num_nodes), ends, per_edge, source, sink, (demand, lam)
        )

    x = solve_lp(lp.compile()).x
    flows: List[Dict[Tuple[int, int], float]] = []
    for per_edge in columns:
        per_key: Dict[Tuple[int, int], float] = defaultdict(float)
        for (src, dst), col in zip(ends, per_edge):
            value = float(x[col])
            if value > 1e-9:
                per_key[(src, dst)] += value
        flows.append(dict(per_key))
    return float(x[lam]), flows


def _min_over_window(values) -> float:
    return min(values) if values else 0.0


def solve_two_phase(
    state: NetworkState,
    requests: List[TransferRequest],
) -> Tuple[TransferSchedule, float, float]:
    """Run both phases; returns (schedule, lambda, phase2_cost).

    ``lambda`` is the common fraction served free in phase 1;
    ``phase2_cost`` is the rate-weighted price paid for the remainder
    (the decomposition's own objective, not the percentile bill).
    """
    if not requests:
        raise SchedulingError("solve_two_phase needs at least one request")

    topology = state.topology
    node_ids = topology.node_ids()
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    start = min(r.release_slot for r in requests)
    end = max(r.last_slot for r in requests) + 1
    window = range(start, end)

    # ---- Phase 1: concurrent flow inside paid headroom. ----
    links = topology.links
    free_caps = [
        _min_over_window([state.paid_headroom(l.src, l.dst, n) for n in window])
        for l in links
    ]
    edges = [
        (index_of[l.src], index_of[l.dst], cap) for l, cap in zip(links, free_caps)
    ]
    commodities = [
        (index_of[r.source], index_of[r.destination], r.desired_rate)
        for r in requests
    ]
    with obs.span("flowbased.phase1", files=len(requests)):
        lam, phase1_flows = max_concurrent_flow(
            len(node_ids), edges, commodities, cap_lambda=1.0
        )
    obs.gauge("flowbased.lambda", lam)

    # Rates routed per file per link in phase 1.
    rates: Dict[Tuple[int, LinkKey], float] = defaultdict(float)
    used_on_link: Dict[LinkKey, float] = defaultdict(float)
    for request, flows in zip(requests, phase1_flows):
        for (si, di), rate in flows.items():
            key = (node_ids[si], node_ids[di])
            rates[(request.request_id, key)] += rate
            used_on_link[key] += rate

    # ---- Phase 2: min-cost multicommodity flow for the remainder. ----
    phase2_cost = 0.0
    if lam < 1.0 - 1e-9:
        with obs.span("flowbased.phase2", files=len(requests)):
            residual_caps = {
                l.key: max(
                    0.0,
                    _min_over_window(
                        [state.residual_capacity(l.src, l.dst, n) for n in window]
                    )
                    - used_on_link[l.key],
                )
                for l in links
            }
            lp = LPBuilder("two_phase_mcmf")
            ends = [link.key for link in links]
            f2: Dict[Tuple[int, LinkKey], int] = {}
            for request in requests:
                rid = request.request_id
                columns = [lp.column((rid, link.key), cost=link.price) for link in links]
                f2.update(zip(((rid, key) for key in ends), columns))
                add_link_balance_rows(
                    lp, node_ids, ends, columns, request.source,
                    request.destination, (1.0 - lam) * request.desired_rate,
                )
            for link in links:
                cap = residual_caps[link.key]
                if cap != float("inf"):
                    lp.row([f2[(r.request_id, link.key)] for r in requests], 1.0, LE, cap)
            solution = solve_lp(lp.compile())
            phase2_cost = solution.objective
            for (rid, key), var in f2.items():
                rate = float(solution.x[var])
                if rate > VOLUME_ATOL:
                    rates[(rid, key)] += rate

    # ---- Expand constant rates into per-slot fluid entries. ----
    by_request = {r.request_id: r for r in requests}
    entries = []
    for (rid, (src, dst)), rate in rates.items():
        if rate <= VOLUME_ATOL:
            continue
        request = by_request[rid]
        for slot in range(request.release_slot, request.last_slot + 1):
            entries.append(
                ScheduleEntry(request_id=rid, src=src, dst=dst, slot=slot, volume=rate)
            )
    return TransferSchedule(entries, semantics=SEMANTICS_FLUID), lam, phase2_cost
