"""The time-expanded flow LP under the ablation formulations.

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
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.lp import EQ, GE, LE, LPBuilder
from repro.net.topology import Topology
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph, TimeNode
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

#: Transit arc -> the columns that load it (capacity and charge rows).
Users = Dict[Arc, List[int]]
#: Node -> ``(column, +1 | -1)`` terms of its net outflow.
Balance = Dict[TimeNode, List[Tuple[int, float]]]
#: A node's supply: a constant, or ``(coefficient, column)`` for
#: ``coefficient * x[column]``.
Supply = Union[float, Tuple[float, int]]


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
    lp: LPBuilder, rid: int, arcs: Iterable[Arc], users: Users
) -> Tuple[Dict[Arc, int], Balance]:
    """One flow column of file ``rid`` per arc, skipping zero-capacity
    transit arcs; each transit column is appended to ``users[arc]``.

    Returns ``(columns, balance)``: the columns by arc, in ``arcs``
    order, and every touched node's net-outflow terms.
    """
    columns: Dict[Arc, int] = {}
    balance: Balance = defaultdict(list)
    for arc in arcs:
        if arc.kind is ArcKind.TRANSIT and arc.capacity <= 0:
            continue
        col = columns[arc] = lp.column(("M", rid, arc))
        if arc.kind is ArcKind.TRANSIT:
            users[arc].append(col)
        balance[arc.tail].append((col, 1.0))
        balance[arc.head].append((col, -1.0))
    return columns, balance


def flow_schedule(flows: Iterable[Tuple[int, Arc, float]]) -> TransferSchedule:
    """Solved ``(file, arc, GB)`` flows as a schedule, in order: a transit
    arc above the volume tolerance is an entry, a holdover arc GB-slots
    of waiting."""
    entries, stored = [], []
    for rid, arc, volume in flows:
        if volume > VOLUME_ATOL:
            if arc.kind is ArcKind.TRANSIT:
                entries.append(ScheduleEntry(rid, arc.src, arc.dst, arc.slot, volume))
            else:
                stored.append((rid, volume))
    return TransferSchedule(entries, stored=stored)


def add_balance_rows(
    lp: LPBuilder, balance: Balance, supply: Callable[[TimeNode], Supply],
) -> None:
    """``net outflow == supply(node)`` at every node of ``balance``."""
    for node, terms in balance.items():
        cols = [col for col, _ in terms]
        vals = [val for _, val in terms]
        rhs = supply(node)
        if isinstance(rhs, tuple):  # a column's multiple moves left
            coef, col = rhs
            cols.append(col)
            vals.append(-coef)
            rhs = 0.0
        lp.row(cols, vals, EQ, rhs)


def add_capacity_rows(lp: LPBuilder, users: Users) -> None:
    """``sum of users <= capacity`` on every finite-capacity arc."""
    for arc, columns in users.items():
        if arc.capacity != float("inf"):
            lp.row(columns, 1.0, LE, arc.capacity)


def add_charge_rows(
    lp: LPBuilder, topology: Topology, users: Users,
    prior: Callable[[int, int], float],
    committed: Optional[Callable[[int, int, int], float]] = None,
) -> Tuple[List[int], List[float], float]:
    """The max-charging epigraph; returns the bill per interval.

    Every link some column loads gets ``X_ij >= prior(i, j)`` and, per
    loaded slot, ``X_ij >= committed(i, j, n) + sum of users``.  The
    bill is ``(columns, prices, constant)``: ``sum a_ij X_ij`` plus
    ``a_ij * prior(i, j)`` for each link no column touches.
    """
    by_link = defaultdict(lambda: defaultdict(list))  # link -> slot -> columns
    for arc, columns in users.items():
        by_link[arc.link_key][arc.slot].extend(columns)

    charged: List[int] = []
    prices: List[float] = []
    fixed_cost = 0.0
    for link in topology.links:
        paid = prior(link.src, link.dst)
        if link.key not in by_link:
            fixed_cost += link.price * paid
            continue
        x = lp.column(("X", link.key), lb=paid)
        for slot, columns in by_link[link.key].items():
            load = committed(link.src, link.dst, slot) if committed is not None else 0.0
            lp.row([x, *columns], [1.0] + [-1.0] * len(columns), GE, load)
        charged.append(x)
        prices.append(link.price)
    return charged, prices, fixed_cost
