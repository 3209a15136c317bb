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
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.errors import SchedulingError
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LinExpr, Model
from repro.mcmf.concurrent import max_concurrent_flow
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

LinkKey = Tuple[int, int]


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
            model = Model("two_phase_mcmf")
            f2: Dict[Tuple[int, LinkKey], object] = {}
            cost_terms = []
            for request in requests:
                rid = request.request_id
                balance = defaultdict(list)
                for link in links:
                    var = model.add_variable(f"f2[{rid},{link.src},{link.dst}]")
                    f2[(rid, link.key)] = var
                    balance[link.src].append((1.0, var))
                    balance[link.dst].append((-1.0, var))
                    cost_terms.append((link.price, var))
                remainder = (1.0 - lam) * request.desired_rate
                for node in node_ids:
                    net = LinExpr.from_terms(balance.get(node, []))
                    if node == request.source:
                        model.add_constraint(net == remainder, name=f"src[{rid}]")
                    elif node == request.destination:
                        model.add_constraint(net == -remainder, name=f"snk[{rid}]")
                    else:
                        model.add_constraint(net == 0.0, name=f"cons[{rid},{node}]")
            for link in links:
                cap = residual_caps[link.key]
                if cap != float("inf"):
                    model.add_constraint(
                        LinExpr.sum(
                            f2[(r.request_id, link.key)] for r in requests
                        )
                        <= cap,
                        name=f"cap[{link.src},{link.dst}]",
                    )
            model.minimize(LinExpr.from_terms(cost_terms))
            solution = model.solve()
            phase2_cost = solution.objective
            for (rid, key), var in f2.items():
                rate = solution.value(var)
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
