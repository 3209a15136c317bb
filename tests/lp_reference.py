"""The reference paths the LP's array assembly replaced, kept as oracles.

* :func:`build_reference` is the operator-algebra Postcard assembler: it
  materialises the :class:`~repro.timeexp.graph.TimeExpandedGraph` and
  writes every row through ``LinExpr`` into a named-row
  :class:`~tests.lp_model.Model` — slow, but obviously faithful to problem
  (6)-(10).  It returns a :class:`ReferenceModel`: ``built.source`` is
  that model, ``built.model`` its lowering, and its solution reads duals
  by constraint; ``built.capacity_constraints`` maps ``(src, dst, slot)``
  to its capacity :class:`~tests.lp_model.Constraint`.
* :func:`compile_legacy` is the per-constraint, per-coefficient lowering
  of a :class:`~tests.lp_model.Model` to a :class:`~repro.lp.CompiledProblem`.
* :func:`as_scipy` reads a compiled matrix as the ``scipy.sparse`` CSR
  matrix the oracles (``linprog``, dense views, matvecs) take.

``tests/test_compile_equivalence.py`` pins ``build_postcard_model`` and
``compile_model`` to these, bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.formulation import (
    STORAGE_FULL,
    ArcSet,
    PostcardModel,
    _checked_arc_sets,
)
from repro.core.state import NetworkState
from repro.errors import InfeasibleError, SchedulingError
from repro.lp import CompiledProblem
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph
from repro.traffic.spec import TransferRequest
from tests.lp_model import (
    LinExpr, Model, ModelSolution, Sense, Variable, _objective_vector, compile_model,
)


class ReferenceModel(PostcardModel):
    """A :class:`PostcardModel` over a :class:`~tests.lp_model.Model`
    (``source``), lowered by its vectorized lowering."""

    def __init__(self, source: Model, *args):
        super().__init__(compile_model(source), *args)
        self.source = source

    def solve(self, **options):
        schedule, solution = super().solve(**options)
        return schedule, ModelSolution(solution, self.source, self.model)


def build_reference(
    state: NetworkState,
    requests: List[TransferRequest],
    storage: str = STORAGE_FULL,
    storage_capacity: float = float("inf"),
    storage_price: float = 0.0,
    transit_price: float = 0.0,
    cost_fn_factory=None,
    charge_exempt=None,
    charged_volume_fn=None,
    predicted_volume_fn=None,
    arc_sets: Optional[Sequence[Optional[ArcSet]]] = None,
) -> ReferenceModel:
    """``build_postcard_model``'s problem, built the reference way."""
    arc_sets, _ = _checked_arc_sets(
        state, requests, storage, storage_capacity, storage_price,
        transit_price, arc_sets,
    )
    start = min(r.release_slot for r in requests)
    end = max(r.release_slot + r.deadline_slots for r in requests)
    graph = TimeExpandedGraph(
        state.topology,
        start_slot=start,
        horizon=end - start,
        capacity_fn=state.residual_capacity,
    )
    built = _assemble_legacy(
        state, graph, requests, arc_sets,
        InfeasibleError,
        storage_capacity, storage_price, transit_price, cost_fn_factory,
        charge_exempt, charged_volume_fn, predicted_volume_fn,
    )
    built.transit_price = transit_price
    return built


def arcs_for_request(graph: TimeExpandedGraph, request: TransferRequest) -> List[Arc]:
    """Arcs admissible for a file: anything inside its time window
    (constraint (10) of the paper — no arcs after ``t + T_k``), in the
    graph's order.  Early arrivals reach the sink layer on the
    destination's free holdover arcs inside the window."""
    first, last_exclusive = graph.request_window(request)
    return [a for a in graph.arcs if first <= a.slot < last_exclusive]


def source_node(graph: TimeExpandedGraph, request: TransferRequest) -> Tuple[int, int]:
    """The supply node ``s_k^t`` (clipped to the graph)."""
    first, _ = graph.request_window(request)
    return (request.source, first)


def sink_node(graph: TimeExpandedGraph, request: TransferRequest) -> Tuple[int, int]:
    """The delivery node ``d_k^{t + T_k}`` (clipped to the graph)."""
    _, last_exclusive = graph.request_window(request)
    return (request.destination, last_exclusive)


def keys_at(arc_set: ArcSet, after: int, before: int) -> Tuple[Tuple[int, int], ...]:
    """Member keys existing ``after`` slots into a window with ``before``
    slots left after this one."""
    return tuple(
        key for key, lo, hi in arc_set.members if lo <= after and hi <= before
    )


def _assemble_legacy(
    state: NetworkState,
    graph: TimeExpandedGraph,
    requests: List[TransferRequest],
    arc_sets: Sequence[Optional[ArcSet]],
    no_exit_error: type,
    storage_capacity, storage_price, transit_price, cost_fn_factory,
    charge_exempt, charged_volume_fn, predicted_volume_fn,
) -> ReferenceModel:
    """Operator-algebra assembly — the executable reference."""
    model = Model("postcard")
    flow_items: List[Tuple[int, Arc]] = []
    #: per transit (link, slot): list of vars crossing it (for capacity
    #: and charge rows)
    arc_users: Dict[Arc, List[Variable]] = defaultdict(list)
    #: per holdover arc: vars of files *in transit* stored there (a
    #: file buffered at its own destination is delivered, not stored)
    storage_users: Dict[Arc, List[Variable]] = defaultdict(list)

    for request, arc_set in zip(requests, arc_sets):
        rid = request.request_id
        arcs = arcs_for_request(graph, request)
        if arc_set is not None:
            first, last = graph.request_window(request)
            keys = {
                n: keys_at(arc_set, n - first, last - n - 1) for n in range(first, last)
            }
            arcs = [a for a in arcs if a.link_key in keys[a.slot]]
        # Node balance built incrementally: +1 on out-arcs, -1 on in-arcs.
        balance: Dict[Tuple[int, int], List[Tuple[float, Variable]]] = defaultdict(list)
        for arc in arcs:
            if arc.kind is ArcKind.TRANSIT and arc.capacity <= 0:
                continue  # fully committed link-slot: no variable at all
            var = model.add_variable(f"M[{rid},{arc.src},{arc.dst},{arc.slot}]")
            flow_items.append((rid, arc))
            if arc.kind is ArcKind.TRANSIT:
                arc_users[arc].append(var)
            elif arc.src != request.destination:
                storage_users[arc].append(var)
            balance[arc.tail].append((1.0, var))
            balance[arc.head].append((-1.0, var))

        source = source_node(graph, request)
        sink = sink_node(graph, request)
        if source not in balance:
            raise no_exit_error(
                f"file {rid}: no admissible arc leaves its source; "
                "the problem is trivially infeasible"
            )
        for node, terms in balance.items():
            net = LinExpr.from_terms(terms)
            if node == source:
                model.add_constraint(net == request.size_gb, name=f"src[{rid}]")
            elif node == sink:
                model.add_constraint(net == -request.size_gb, name=f"snk[{rid}]")
            else:
                model.add_constraint(
                    net == 0.0, name=f"cons[{rid},{node[0]},{node[1]}]"
                )

    inf = float("inf")
    # Capacity rows: aggregate new traffic within residual capacity.
    capacity_rows = {
        (arc.src, arc.dst, arc.slot): model.add_constraint(
            LinExpr.sum(users) <= arc.capacity,
            name=f"cap[{arc.src},{arc.dst},{arc.slot}]",
        )
        for arc, users in arc_users.items()
        if arc.capacity != inf
    }
    # Storage rows: per-datacenter buffer capacity for in-transit data.
    if storage_capacity != inf:
        for arc, users in storage_users.items():
            model.add_constraint(
                LinExpr.sum(users) <= storage_capacity,
                name=f"store[{arc.src},{arc.slot}]",
            )

    # Charge rows: one X_ij per overlay link that new traffic can use.
    by_link: Dict[Tuple[int, int], Dict[int, List[Variable]]] = {}
    for arc, users in arc_users.items():
        by_link.setdefault(arc.link_key, {}).setdefault(arc.slot, []).extend(users)

    charge_columns: Dict[Tuple[int, int], int] = {}
    objective_terms: List[Tuple[float, Variable]] = []
    fixed_cost = 0.0
    for link in state.topology.links:
        key = link.key
        prior = (
            charged_volume_fn(*key)
            if charged_volume_fn is not None
            else state.charged_volume(*key)
        )
        cost_fn = cost_fn_factory(link) if cost_fn_factory else None
        if key not in by_link:
            fixed_cost += cost_fn(prior) if cost_fn else link.price * prior
            continue
        x = model.add_variable(f"X[{key[0]},{key[1]}]", lb=prior)
        charge_columns[key] = x.index
        # One volumes-map fetch per link instead of one ledger call per
        # row; ``volumes.get(slot, 0.0)`` is exactly committed_volume().
        committed_map = state.ledger.usage(key[0], key[1]).volumes
        for slot, users in by_link[key].items():
            if charge_exempt is not None and charge_exempt(key[0], key[1], slot):
                continue
            committed = committed_map.get(slot, 0.0)
            if predicted_volume_fn is not None:
                committed += predicted_volume_fn(key[0], key[1], slot)
            model.add_constraint(
                x >= LinExpr.sum(users) + committed,
                name=f"chg[{key[0]},{key[1]},{slot}]",
            )
        if cost_fn is None:
            objective_terms.append((link.price, x))
        else:
            objective_terms.append(
                (1.0, _link_cost_variable(model, key, x, cost_fn))
            )

    # Metered costs: per GB-slot of in-transit buffering, per GB-hop.
    for price, users_by_arc in ((storage_price, storage_users), (transit_price, arc_users)):
        if price > 0.0:
            for users in users_by_arc.values():
                objective_terms.extend((price, var) for var in users)

    model.minimize(LinExpr.from_terms(objective_terms, constant=fixed_cost))
    rids, arcs = zip(*flow_items)
    flow_columns = tuple(np.array(column) for column in (
        rids, *zip(*((a.src, a.dst, a.slot, a.kind is ArcKind.TRANSIT) for a in arcs))
    ))
    # The reference states no row layout: no capacity cells, no balance nodes.
    built = ReferenceModel(
        model, list(requests), flow_columns, charge_columns, fixed_cost, None, None,
    )
    built.capacity_constraints = capacity_rows
    return built


def _link_cost_variable(model: Model, key, x: Variable, cost_fn) -> Variable:
    """Epigraph variable for a (convex) cost of one link's charge.

    ``LinearCost`` lowers to ``c == price * X``; a convex
    :class:`~repro.charging.costfunc.PiecewiseLinearCost` lowers to one
    ``c >= slope * X + intercept`` row per segment.  Concave functions
    (volume discounts) cannot be minimized this way and are rejected.
    """
    from repro.charging.costfunc import LinearCost, PiecewiseLinearCost

    c = model.add_variable(f"C[{key[0]},{key[1]}]", lb=None)
    if isinstance(cost_fn, LinearCost):
        model.add_constraint(c >= cost_fn.price * x, name=f"cost[{key}]")
        return c
    if isinstance(cost_fn, PiecewiseLinearCost):
        if not cost_fn.is_convex:
            raise SchedulingError(
                f"cost function for link {key} is not convex; the epigraph "
                "objective cannot represent volume discounts"
            )
        model.add_constraint(c >= 0.0, name=f"cost0[{key}]")
        for i, (slope, intercept) in enumerate(cost_fn.segments()):
            model.add_constraint(
                c >= slope * x + intercept, name=f"cost[{key},{i}]"
            )
        return c
    raise SchedulingError(
        f"unsupported cost function type {type(cost_fn).__name__} for the "
        "LP objective (use LinearCost or a convex PiecewiseLinearCost)"
    )


def as_scipy(matrix) -> sparse.csr_matrix:
    """A copy of a :class:`~repro.lp.RowMatrix` (or a scipy CSR matrix) as
    scipy's CSR matrix."""
    return sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                             shape=matrix.shape, copy=True)


def compile_legacy(model: Model) -> CompiledProblem:
    """The original per-constraint loop, kept as executable reference."""
    n = model.num_variables
    c, c0 = _objective_vector(model)

    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_data: List[float] = []
    b_ub: List[float] = []
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_data: List[float] = []
    b_eq: List[float] = []

    row_map: List[Tuple[str, int, float]] = []
    for con in model.constraints:
        expr = con.expr
        if con.sense is Sense.EQ:
            row = len(b_eq)
            for idx, coef in expr.coeffs.items():
                if coef != 0.0:
                    eq_rows.append(row)
                    eq_cols.append(idx)
                    eq_data.append(coef)
            b_eq.append(-expr.constant)
            row_map.append(("eq", row, 1.0))
        else:
            flip = -1.0 if con.sense is Sense.GE else 1.0
            row = len(b_ub)
            for idx, coef in expr.coeffs.items():
                if coef != 0.0:
                    ub_rows.append(row)
                    ub_cols.append(idx)
                    ub_data.append(flip * coef)
            b_ub.append(flip * -expr.constant)
            row_map.append(("ub", row, flip))

    a_ub = sparse.csr_matrix(
        (ub_data, (ub_rows, ub_cols)), shape=(len(b_ub), n), dtype=float
    )
    a_eq = sparse.csr_matrix(
        (eq_data, (eq_rows, eq_cols)), shape=(len(b_eq), n), dtype=float
    )

    bounds = [(var.lb, var.ub) for var in model.variables]

    return CompiledProblem(
        c=c,
        c0=c0,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=a_eq,
        b_eq=np.asarray(b_eq, dtype=float),
        bounds=bounds,
        maximize=not model.sense_minimize,
        row_map=row_map,
    )
