"""The Postcard LP on the time-expanded graph (Sec. V, problem (6)-(10)).

Variables ``M[k, arc]`` give the GB of file ``k`` carried by each
admissible arc of the time-expanded graph.  Charged volumes ``X_ij``
enter through the epigraph transform: minimizing
``sum(a_ij * X_ij)`` subject to ``X_ij >= X_ij(t-1)`` and, for every
slot ``n``, ``X_ij >= B_ij(n) + sum_k M[k, (i,j,n)]``, where ``B_ij(n)``
is traffic already committed by earlier online rounds.  With
``B == 0`` this is exactly the paper's
``X_ij(t) = max{X_ij(t-1), max_n sum_k M_ij^k(n)}``; with in-flight
traffic it is the strictly more accurate form (see DESIGN.md).

The problem is written directly as the :class:`~repro.lp.CompiledProblem`
HiGHS reads: no graph and no model object, just numpy index arithmetic
over each file's arc-set columns and one residual-capacity ask per
link-slot cell of the window.  A convex cost function per link adds an
epigraph column ``C_ij``; charge exemptions drop charge rows; the
capacity rows are recorded by cell so their duals price congestion.
``tests/lp_reference.py`` keeps the operator-algebra assembler on a
materialised graph that this one replaced; ``tests/test_compile_equivalence.py``
pins the two to the same matrices, bit for bit.

Each file takes one :class:`ArcSet`, or none: with none its variables
span the paper's full ``DCs x window`` subgraph (the ``postcard``
scheduler, the oracle every pruned model is pinned against);
``storage="destination_only"`` is an arc set, and the hybrid's LP lane
passes each file the links of its candidate paths.

The whole assembly runs under the ``lp.build`` span, the counterpart of
the solver's ``lp.solve``; it carries ``arcs`` (``"paths"`` or
``"full"``), ``rows`` and ``columns``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InfeasibleError, SchedulingError
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.charging.costfunc import LinearCost, PiecewiseLinearCost
from repro.lp import CompiledProblem, Solution, row_matrix, solve_lp
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

#: Storage policies for :func:`build_postcard_model`.
STORAGE_FULL = "full"
STORAGE_DESTINATION_ONLY = "destination_only"


class ArcSet:
    """The arcs of the time-expanded graph one file's variables may use.

    The paper gives every file the whole ``DCs x window`` subgraph; an
    arc set keeps only ``members``: ``((src, dst), lo, hi)`` per overlay
    link (``src == dst``: holdover there), in the graph's construction
    order — links in topology order, then nodes.  In a file's window
    ``[first, last)`` a member exists at slot ``n`` when ``first + lo <=
    n`` and ``n + 1 + hi <= last``; with ``lo`` the fewest hops from the
    source to the arc's tail and ``hi`` the fewest from its head to the
    destination, that drops exactly the time copies no route can cross.
    """

    __slots__ = ("members", "_columns")

    def __init__(self, members: Iterable[Tuple[Tuple[int, int], int, int]]):
        self.members = tuple(members)
        self._columns: Dict[int, tuple] = {}

    def columns(self, deadline: int, link_index: Dict[Tuple[int, int], int]) -> tuple:
        """The set's time copies in a window of ``deadline`` slots: parallel
        arrays ``(slot in the window, src, dst, link)``, slot by slot and
        members in order; ``link`` is the ``link_index`` position in
        ``topology.links``, -1 for holdover.  Memoised with the set."""
        template = self._columns.get(deadline)
        if template is None:
            keys, lo, hi = zip(*self.members)
            ends = np.array(keys, dtype=np.int64).reshape(-1, 2)
            link = np.array(
                [-1 if a == b else link_index[a, b] for a, b in keys], dtype=np.int64
            )
            after = np.arange(deadline)[:, None]
            rel, member = np.nonzero(
                (np.array(lo) <= after) & (np.array(hi) <= deadline - 1 - after)
            )
            template = self._columns[deadline] = (
                rel, ends[member, 0], ends[member, 1], link[member]
            )
        return template

    @classmethod
    def from_paths(cls, topology, source: int, destination: int, paths) -> "ArcSet":
        """The links of ``paths`` (node lists, ``source`` to
        ``destination``) plus holdover at their nodes, hop-bounded."""
        links = {hop for path in paths for hop in zip(path, path[1:])}
        out = _hops(links, source)
        back = _hops({(b, a) for a, b in links}, destination)
        return cls(
            [(link.key, out[link.src], back[link.dst])
             for link in topology.links if link.key in links]
            + [((node, node), out[node], back[node])
               for node in topology.node_ids() if node in out and node in back]
        )


def _hops(links, start: int) -> Dict[int, int]:
    """Fewest hops from ``start`` to each node it reaches over ``links``."""
    hops, frontier, depth = {start: 0}, {start}, 0
    while frontier:
        depth += 1
        frontier = {b for a, b in links if a in frontier and b not in hops}
        hops.update(dict.fromkeys(frontier, depth))
    return hops


class PostcardModel:
    """A built (not yet solved) Postcard LP plus its column and row maps."""

    def __init__(
        self,
        model: CompiledProblem,
        requests: List[TransferRequest],
        flow_columns: Tuple[np.ndarray, ...],
        charge_columns: Dict[Tuple[int, int], int],
        fixed_charge_cost: float,
        capacity_cells: tuple,
        balance_nodes: tuple,
    ):
        #: The problem HiGHS is handed.
        self.model = model
        self.requests = requests
        #: Parallel ``(request id, src, dst, slot, is transit)`` arrays,
        #: one entry per flow variable — the problem's first columns.
        self.flow_columns = flow_columns
        #: overlay link -> column of its ``X_ij``.
        self.charge_columns = charge_columns
        #: sum(a_ij * X_ij(t-1)) over links the new files cannot touch;
        #: a constant added to the objective so it reports the full
        #: network-wide cost per slot.
        self.fixed_charge_cost = fixed_charge_cost
        #: ``(topology links, link positions, slots)``, one entry per
        #: capacity row — the first rows of ``a_ub``, in this order.
        self.capacity_cells = capacity_cells
        #: Parallel ``(request position, layer, node)`` arrays, one entry
        #: per balance row (the rows of ``a_eq``): node ``node`` at the
        #: start of slot ``layer`` in the time-expanded graph of file
        #: ``requests[position]``.  A file's supply sits at its release
        #: layer, its demand at ``release_slot + deadline_slots``.
        self.balance_nodes = balance_nodes
        self.transit_price = 0.0  #: GB-hop tie-break, not part of the bill

    @property
    def num_variables(self) -> int:
        return self.model.num_variables

    @property
    def num_constraints(self) -> int:
        return self.model.num_constraints

    @property
    def capacity_rows(self) -> Dict[Tuple[int, int, int], int]:
        """(src, dst, slot) -> its capacity row's position in ``a_ub``."""
        links, link, slot = self.capacity_cells
        return {
            (*links[at].key, n): row
            for row, (at, n) in enumerate(zip(link.tolist(), slot.tolist()))
        }

    def solve(self, **options) -> Tuple[TransferSchedule, Solution]:
        """Optimize and extract the store-and-forward schedule."""
        solution = solve_lp(self.model, **options)
        if self.transit_price:  # report the bill, not the tie-break
            request_id, _, _, _, transit = self.flow_columns
            volumes = solution.x[:len(request_id)]
            solution.objective -= self.transit_price * volumes[transit].sum()
        return self.schedule(solution), solution

    def schedule(self, solution: Solution, keep=None) -> TransferSchedule:
        """The flows of ``solution`` (of the flow columns ``keep`` masks,
        if given): the transit columns as entries, the holdover columns
        as GB-slots of waiting, each in column order."""
        request_id, src, dst, slot, transit = self.flow_columns
        volumes = solution.x[:len(request_id)]
        used = volumes > VOLUME_ATOL
        if keep is not None:
            used &= keep
        moves, holds = used & transit, used & ~transit
        entries = [
            ScheduleEntry(*row) for row in zip(
                *(column[moves].tolist() for column in (request_id, src, dst, slot, volumes))
            )
        ]
        stored = zip(request_id[holds].tolist(), volumes[holds].tolist())
        return TransferSchedule(entries, stored=stored)

    def supply_columns(self, per_unit, upper, weights) -> CompiledProblem:
        """The problem with each file's supply a column, maximized.

        File ``k``'s column ``y_k in [0, upper[k]]`` sends
        ``per_unit[k] * y_k`` GB from its source node to its sink node in
        place of its fixed size, and the objective is
        ``max sum(weights[k] * y_k)``.  The ``y`` columns follow every
        other column, in request order; the rows are unchanged.
        """
        problem = self.model
        num_columns, count = problem.num_variables, len(self.requests)
        ends = np.flatnonzero(problem.b_eq)  # the files' source and sink rows
        files = self.balance_nodes[0][ends]
        rows, cols, values = problem.a_eq.coo()
        b_eq = problem.b_eq.copy()
        b_eq[ends] = 0.0
        return replace(
            problem,
            c=np.concatenate([np.zeros(num_columns), -np.asarray(weights, float)]),
            c0=0.0,
            a_ub=replace(problem.a_ub, shape=(problem.num_inequalities, num_columns + count)),
            a_eq=row_matrix(
                np.append(rows, ends), np.append(cols, num_columns + files),
                np.append(values, -np.sign(problem.b_eq[ends])
                          * np.asarray(per_unit, float)[files]),
                (problem.num_equalities, num_columns + count),
            ),
            b_eq=b_eq,
            bounds=np.vstack([problem.bounds, np.column_stack((np.zeros(count), upper))]),
            maximize=True,
        )

    def congestion_prices(self, solution: Solution) -> Dict[Tuple[int, int, int], float]:
        """Shadow price of each binding capacity row, in $/GB.

        The dual of the capacity constraint on (src, dst, slot) is the
        marginal saving one extra GB/slot of capacity there would buy —
        the LP-theoretic answer to "which link should we upgrade?".
        Only links whose price is positive appear; zero-price entries
        are filtered.  Needs a solver that reports row duals (HiGHS);
        a solution without them raises :class:`ModelError`.
        """
        row_duals = solution.row_duals
        prices = {}
        for key, row in self.capacity_rows.items():
            dual = float(row_duals[row])
            # A <=-row dual in a minimization is <= 0: relaxing the
            # capacity lowers cost.  Report the positive saving.
            if dual < -1e-9:
                prices[key] = -dual
        return prices


def build_postcard_model(
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
) -> PostcardModel:
    """Assemble the Sec. V LP for the files released at the current slot.

    Parameters
    ----------
    state:
        Online state providing residual capacities, committed per-slot
        volumes ``B_ij(n)`` and charged volumes ``X_ij(t-1)``.
    requests:
        The slot's released files ``K(t)`` (mixed release slots are
        allowed; the problem spans all their windows).
    storage:
        ``"full"`` (the paper) allows holdover at any datacenter;
        ``"destination_only"`` disables intermediate/source storage so
        data must keep moving — the ablation quantifying what
        store-and-forward itself contributes.  A file whose source
        then has no lit out-link raises :class:`InfeasibleError`.
    storage_capacity:
        GB of buffer available per datacenter per slot for in-transit
        data.  The paper assumes infinite (datacenter disk dwarfs WAN
        bandwidth); finite values study the capacitated variant.  Data
        already at its own destination is delivered and never counts.
    storage_price:
        Dollars per GB-slot of intermediate buffering.  The paper
        assumes zero; a positive price makes the optimizer trade
        storage against transit peaks.  Billed per use, not per peak
        (disk is metered, unlike percentile-billed WAN links).
    transit_price:
        Dollars per GB-hop on every transit column (the paper has none):
        far below any link's price, it breaks the bill's ties toward
        fewer hop-GB.  The reported objective leaves it out.
    cost_fn_factory:
        Optional ``factory(link) -> CostFunction`` replacing the
        default linear ``a_ij * X_ij`` term of each link.  Piece-wise
        linear functions must be convex (epigraph representation).
    charge_exempt:
        Optional predicate ``(src, dst, slot) -> bool``; link-slots for
        which it returns True get no charge row — their traffic is
        assumed to land in the free top percentile of a q < 100
        charging scheme (see
        :class:`repro.extensions.percentile.PercentileAwareScheduler`).
    charged_volume_fn:
        Optional override for ``X_ij(t-1)``; percentile-aware callers
        pass the charged volume *excluding* amnestied burst slots.
    predicted_volume_fn:
        Optional ``(src, dst, slot) -> GB`` of *forecast* background
        traffic added to the committed volume in each charge row (see
        :mod:`repro.forecast`).  The LP then treats predicted-busy
        cells as already lifting the watermark, steering paid traffic
        toward predicted-quiet slots.  Capacity rows are untouched —
        forecasts shape cost, never feasibility or admission.
    arc_sets:
        Optional :class:`ArcSet` (or ``None``: every arc) per request,
        same order: the file's variables exist only on its set's arcs.
        A file whose set leaves its source no out-arc raises
        :class:`InfeasibleError` — the pruning failed, not the problem —
        so the caller can widen to the full model.  Full storage only.
    """
    arc_sets, pruned = _checked_arc_sets(
        state, requests, storage, storage_capacity, storage_price,
        transit_price, arc_sets,
    )
    with obs.span(
        "lp.build", requests=len(requests), arcs="paths" if pruned else "full",
    ) as build_span:
        built = _assemble(
            state, requests, arc_sets, storage_capacity, storage_price,
            transit_price, predicted_volume_fn, cost_fn_factory, charge_exempt,
            charged_volume_fn,
        )
        built.transit_price = transit_price
        attrs = getattr(build_span, "attrs", None)
        if attrs is not None:
            attrs["rows"] = built.num_constraints
            attrs["columns"] = built.num_variables
        return built


def _checked_arc_sets(
    state, requests, storage, storage_capacity, storage_price, transit_price, arc_sets,
):
    """Validate the inputs; return one arc set (or ``None``) per request
    and whether any file is pruned."""
    if not requests:
        raise SchedulingError("build_postcard_model needs at least one request")
    if storage not in (STORAGE_FULL, STORAGE_DESTINATION_ONLY):
        raise SchedulingError(f"unknown storage policy {storage!r}")
    if storage_capacity < 0:
        raise SchedulingError("storage_capacity must be non-negative")
    if storage_price < 0 or transit_price < 0:
        raise SchedulingError("storage_price and transit_price must be non-negative")
    pruned = arc_sets is not None and any(arc_sets)
    if pruned:
        if storage != STORAGE_FULL or len(arc_sets) != len(requests):
            raise SchedulingError(
                "arc_sets needs one entry per request and storage='full'"
            )
        return arc_sets, True
    if storage == STORAGE_DESTINATION_ONLY:
        # The ablation is an arc set too: every link at every slot,
        # holdover at the file's own destination only.
        links = tuple((link.key, 0, 0) for link in state.topology.links)
        by_destination = {
            node: ArcSet(links + (((node, node), 0, 0),))
            for node in {r.destination for r in requests}
        }
        return [by_destination[r.destination] for r in requests], False
    return [None] * len(requests), False


def _first_use(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in the order they first appear, and each
    key's position in that order — the reference's dict insertion order."""
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


def _assemble(
    state: NetworkState,
    requests: List[TransferRequest],
    arc_sets: Sequence[Optional[ArcSet]],
    storage_capacity: float,
    storage_price: float,
    transit_price: float,
    predicted_volume_fn,
    cost_fn_factory,
    charge_exempt,
    charged_volume_fn,
) -> PostcardModel:
    """The compiled problem, written as arrays.

    Columns are each file's arc-set time copies minus transit cells with
    no residual capacity, then per charged link its ``X_ij`` and (with a
    cost function) its ``C_ij``; rows are balance rows (``a_eq``), then
    capacity, storage and, link by link, charge and cost rows (``a_ub``),
    each numbered where it is first used.  Slots count from the window's
    start, so nothing depends on how long the service has been up.
    """
    inf = float("inf")
    links = state.topology.links
    link_index = {link.key: at for at, link in enumerate(links)}
    num_links = len(links)
    start = min(r.release_slot for r in requests)
    span = max(r.release_slot + r.deadline_slots for r in requests) - start

    residual = state.residual_capacity
    ends = [link.key for link in links]
    capacity = np.array([
        residual(src, dst, slot)
        for slot in range(start, start + span) for src, dst in ends
    ])

    # -- columns -----------------------------------------------------------
    everything = ArcSet(
        [(key, 0, 0) for key in ends]
        + [((node, node), 0, 0) for node in state.topology.node_ids()]
    )
    templates = [
        (arc_set or everything).columns(request.deadline_slots, link_index)
        for request, arc_set in zip(requests, arc_sets)
    ]
    sizes = [len(template[0]) for template in templates]
    rel, src, dst, via = (np.concatenate(part) for part in zip(*templates))
    of = np.repeat(np.arange(len(requests)), sizes)  # column -> request
    first = np.array([r.release_slot - start for r in requests])
    slot = rel + first[of]
    cell = slot * num_links + via  # meaningful where via >= 0
    keep = (via < 0) | (capacity[np.where(via < 0, 0, cell)] > 0)
    of, slot, src, dst, cell, transit = (
        column[keep] for column in (of, slot, src, dst, cell, via >= 0)
    )
    num_flows = len(of)

    # -- balance rows ------------------------------------------------------
    stride = max(state.topology.node_ids()) + 1
    tail = (of * (span + 1) + slot) * stride + src
    nodes, node_row = _first_use(
        np.stack((tail, tail - src + stride + dst), axis=1).ravel()
    )
    layer, node = divmod(nodes, stride)
    owner, layer = divmod(layer, span + 1)  # the file a row belongs to
    source = np.array([r.source for r in requests])
    destination = np.array([r.destination for r in requests])
    size = np.array([float(r.size_gb) for r in requests])
    last = first + [r.deadline_slots for r in requests]
    is_source = (layer == first[owner]) & (node == source[owner])
    is_sink = (layer == last[owner]) & (node == destination[owner])
    stranded = np.bincount(owner[is_source], minlength=len(requests)) == 0
    if stranded.any():
        raise InfeasibleError(
            f"file {requests[int(np.argmax(stranded))].request_id}: no "
            "admissible arc leaves its source; the problem is trivially infeasible"
        )
    b_eq = np.where(is_source, size[owner], np.where(is_sink, -size[owner], 0.0))
    flows = np.arange(num_flows)

    # -- capacity and storage rows -------------------------------------------
    movers = flows[transit]
    cells, cell_of = _first_use(cell[transit])
    cell_slot, cell_link = divmod(cells, num_links)
    finite = capacity[cells] != inf
    capacity_row = np.cumsum(finite) - 1
    capped = finite[cell_of]
    rows = [capacity_row[cell_of[capped]]]
    cols = [movers[capped]]
    values = [np.ones(len(rows[0]))]
    b_ub = [capacity[cells[finite]]]
    num_rows = int(finite.sum())

    stored = flows[~transit & (src != destination[of])]
    if storage_capacity != inf:
        buffers, buffer_of = _first_use(slot[stored] * stride + src[stored])
        rows.append(num_rows + buffer_of)
        cols.append(stored)
        values.append(np.ones(len(stored)))
        b_ub.append(np.full(len(buffers), float(storage_capacity)))
        num_rows += len(buffers)

    # -- charge rows, link by link: the cells' committed volumes ---------------
    by_link = np.argsort(cell_link, kind="stable")
    committed, kept = [], []
    current = None
    for at_link, at_slot in zip(
        cell_link[by_link].tolist(), (cell_slot[by_link] + start).tolist()
    ):
        if at_link != current:
            current = at_link
            a, b = ends[current]
            # One volumes-map fetch per link instead of one ledger call
            # per row; ``volumes.get(slot, 0.0)`` is committed_volume().
            volumes = state.ledger.usage(a, b).volumes
        volume = volumes.get(at_slot, 0.0)
        if predicted_volume_fn is not None:
            volume += predicted_volume_fn(a, b, at_slot)
        committed.append(volume)
        if charge_exempt is not None:
            kept.append(not charge_exempt(a, b, at_slot))
    kept = np.array(kept, dtype=bool) if charge_exempt else slice(None)
    kept_cells = by_link[kept]  # the cells with a charge row, in row order
    kept_through = np.cumsum(np.bincount(cell_link[kept_cells], minlength=num_links))

    # -- X_ij (and C_ij) columns and cost rows --------------------------------
    charged = set(cell_link.tolist())
    charge_columns: Dict[Tuple[int, int], int] = {}
    x_column = np.zeros(num_links, dtype=np.int64)
    cost_before = np.zeros(num_links, dtype=np.int64)  # cost rows ahead of a link's charge rows
    lower, objective = [], []  # per X_ij / C_ij column
    cost_rows, cost_cols, cost_values = [], [], []  # the cost rows' entries
    cost_at, cost_b = [], []  # per cost row: its row and right-hand side
    fixed_cost = 0.0
    for at, link in enumerate(links):
        key = link.key
        prior = (
            charged_volume_fn(*key) if charged_volume_fn is not None
            else state.charged_volume(*key)
        )
        cost_fn = cost_fn_factory(link) if cost_fn_factory else None
        if at not in charged:
            fixed_cost += cost_fn(prior) if cost_fn else link.price * prior
            continue
        x = x_column[at] = charge_columns[key] = num_flows + len(lower)
        cost_before[at] = len(cost_b)
        lower.append(prior)
        objective.append(0.0 if cost_fn else link.price)
        if cost_fn is None:
            continue
        lower.append(-inf)
        objective.append(1.0)
        first_row = num_rows + int(kept_through[at]) + len(cost_b)
        for row, (slope, bound) in enumerate(_epigraph(key, cost_fn), first_row):
            # -C_ij + slope * X_ij <= bound; a zero slope writes no entry.
            cost_rows += [row, row] if slope else [row]
            cost_cols += [x + 1, x] if slope else [x + 1]
            cost_values += [-1.0, slope] if slope else [-1.0]
            cost_at.append(row)
            cost_b.append(bound)

    charge_row = np.full(len(cells), -1)  # -1: exempt, no charge row
    charge_row[kept_cells] = (
        num_rows + np.arange(len(kept_cells)) + cost_before[cell_link[kept_cells]]
    )
    has_row = charge_row >= 0
    mover_row = charge_row[cell_of]
    pays = mover_row >= 0
    rows += [mover_row[pays], charge_row[has_row], np.array(cost_rows, dtype=np.int64)]
    cols += [movers[pays], x_column[cell_link[has_row]], np.array(cost_cols, dtype=np.int64)]
    values += [np.ones(int(pays.sum())), np.full(len(kept_cells), -1.0), np.array(cost_values)]
    charge_b = np.empty(len(kept_cells) + len(cost_b))
    charge_b[charge_row[kept_cells] - num_rows] = -np.array(committed, dtype=float)[kept]
    charge_b[np.array(cost_at, dtype=np.int64) - num_rows] = cost_b
    b_ub.append(charge_b)
    num_rows += len(charge_b)

    # -- objective, bounds ---------------------------------------------------
    num_columns = num_flows + len(lower)
    c = np.zeros(num_columns)
    c[num_flows:] = objective
    if storage_price > 0.0:
        c[stored] = storage_price
    c[movers] = transit_price
    bounds = np.tile((0.0, inf), (num_columns, 1))
    bounds[num_flows:, 0] = lower

    problem = CompiledProblem(
        c=c,
        c0=fixed_cost,
        a_ub=row_matrix(np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(values), (num_rows, num_columns)),
        b_ub=np.concatenate(b_ub),
        a_eq=row_matrix(node_row, np.repeat(flows, 2), np.tile((1.0, -1.0), num_flows),
                        (len(nodes), num_columns)),
        b_eq=b_eq,
        bounds=bounds,
        maximize=False,
        name="postcard",
    )
    request_ids = np.array([r.request_id for r in requests])
    return PostcardModel(
        problem, list(requests),
        (request_ids[of], src, dst, slot + start, transit),
        charge_columns, fixed_cost,
        (links, cell_link[finite], cell_slot[finite] + start),
        (owner, layer + start, node),
    )


def _epigraph(key, cost_fn) -> List[Tuple[float, float]]:
    """``(slope, bound)`` per row ``C_ij >= slope * X_ij - bound`` of a
    (convex) link cost: ``LinearCost`` is one row ``C >= price * X``, a
    convex :class:`PiecewiseLinearCost` is ``C >= 0`` plus one row per
    segment.  Concave functions (volume discounts) cannot be minimized
    this way and are rejected.
    """
    if isinstance(cost_fn, LinearCost):
        return [(cost_fn.price, 0.0)]
    if isinstance(cost_fn, PiecewiseLinearCost):
        if not cost_fn.is_convex:
            raise SchedulingError(
                f"cost function for link {key} is not convex; the epigraph "
                "objective cannot represent volume discounts"
            )
        # 0.0 - intercept: the right-hand side ``C >= slope * X + intercept``
        # lowers to, signed zeros included.
        return [(0.0, 0.0)] + [
            (slope, 0.0 - intercept) for slope, intercept in cost_fn.segments()
        ]
    raise SchedulingError(
        f"unsupported cost function type {type(cost_fn).__name__} for the "
        "LP objective (use LinearCost or a convex PiecewiseLinearCost)"
    )
