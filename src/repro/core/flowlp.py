"""The time-expanded flow LP under the object-model formulations.

Sec. V's program in the pieces every variant shares: per-file flow
columns ``M`` on time-expanded arcs, one balance row per node, one
capacity row per capacitated transit arc, and the epigraph that turns
max-charging into an LP (``X_ij >= X_ij(t-1)``, ``X_ij >= B_ij(n) +
sum_k M``).  Soft deadlines, the budget relaxation, bulk throughput,
replanning and multicast each add only their supplies and objective.
The daemon's array assembler (:mod:`repro.core.formulation`) and the
flow-based models keep their own row layouts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.lp import LinExpr, Model, Variable
from repro.lp.expr import ExprLike
from repro.net.topology import Topology
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph, TimeNode
from repro.traffic.spec import TransferRequest

#: Transit arc -> the columns that load it (capacity and charge rows).
Users = Dict[Arc, List[Variable]]
#: Node -> ``(+1 | -1, column)`` terms of its net outflow.
Balance = Dict[TimeNode, List[Tuple[float, Variable]]]


def window_graph(
    topology: Topology, requests: List[TransferRequest],
    capacity_fn: Callable[[int, int, int], float], extension: int = 0,
) -> TimeExpandedGraph:
    """The graph over the files' joint window, ``extension`` slots longer."""
    start = min(r.release_slot for r in requests)
    end = max(r.release_slot + r.deadline_slots for r in requests) + extension
    return TimeExpandedGraph(
        topology, start_slot=start, horizon=end - start, capacity_fn=capacity_fn
    )


def add_flows(
    model: Model, rid: int, arcs: Iterable[Arc], users: Users
) -> Tuple[Dict[Arc, Variable], Balance]:
    """One flow column of file ``rid`` per arc, skipping zero-capacity
    transit arcs; each transit column is appended to ``users[arc]``.

    Returns ``(columns, balance)``: the columns by arc, in ``arcs``
    order, and every touched node's net-outflow terms.
    """
    columns: Dict[Arc, Variable] = {}
    balance: Balance = defaultdict(list)
    for arc in arcs:
        if arc.kind is ArcKind.TRANSIT and arc.capacity <= 0:
            continue
        var = model.add_variable(f"M[{rid},{arc.src},{arc.dst},{arc.slot}]")
        columns[arc] = var
        if arc.kind is ArcKind.TRANSIT:
            users[arc].append(var)
        balance[arc.tail].append((1.0, var))
        balance[arc.head].append((-1.0, var))
    return columns, balance


def add_balance_rows(
    model: Model, rid: int, balance: Balance,
    supply: Callable[[TimeNode], ExprLike],
) -> None:
    """``net outflow == supply(node)`` at every node of ``balance``."""
    for node, terms in balance.items():
        model.add_constraint(
            LinExpr.from_terms(terms) == supply(node),
            name=f"bal[{rid},{node[0]},{node[1]}]",
        )


def add_capacity_rows(model: Model, users: Users) -> None:
    """``sum of users <= capacity`` on every finite-capacity arc."""
    for arc, columns in users.items():
        if arc.capacity != float("inf"):
            model.add_constraint(
                LinExpr.sum(columns) <= arc.capacity,
                name=f"cap[{arc.src},{arc.dst},{arc.slot}]",
            )


def add_charge_rows(
    model: Model, topology: Topology, users: Users,
    prior: Callable[[int, int], float],
    committed: Optional[Callable[[int, int, int], float]] = None,
) -> LinExpr:
    """The max-charging epigraph; returns the bill per interval.

    Every link some column loads gets ``X_ij >= prior(i, j)`` and, per
    loaded slot, ``X_ij >= committed(i, j, n) + sum of users``.  The
    result is ``sum a_ij X_ij`` plus ``a_ij * prior(i, j)`` for each
    link no column touches.
    """
    by_link = defaultdict(lambda: defaultdict(list))  # link -> slot -> columns
    for arc, columns in users.items():
        by_link[arc.link_key][arc.slot].extend(columns)

    terms: List[Tuple[float, Variable]] = []
    fixed_cost = 0.0
    for link in topology.links:
        paid = prior(link.src, link.dst)
        if link.key not in by_link:
            fixed_cost += link.price * paid
            continue
        x = model.add_variable(f"X[{link.src},{link.dst}]", lb=paid)
        for slot, columns in by_link[link.key].items():
            load = LinExpr.sum(columns)
            if committed is not None:
                load = load + committed(link.src, link.dst, slot)
            model.add_constraint(x >= load, name=f"chg[{link.src},{link.dst},{slot}]")
        terms.append((link.price, x))
    return LinExpr.from_terms(terms, constant=fixed_cost)
