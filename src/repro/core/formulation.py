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

Two assembly paths build the same model:

* ``"legacy"`` constructs every row through the ``LinExpr`` operator
  algebra — readable, obviously faithful to the math, and kept as the
  executable reference.
* ``"fast"`` builds the coefficient dictionaries of each row directly,
  skipping operator dispatch, expression copies and ``Arc`` hashing.
  It performs float-identical arithmetic in the same order, so the
  resulting model compiles to the same matrices bit for bit — a claim
  pinned by ``tests/test_compile_equivalence.py``.

Both take one :class:`ArcSet` per file, or none: with none a file's
variables span the paper's full ``DCs x window`` subgraph (the
``postcard`` scheduler, the oracle every pruned model is pinned
against); ``storage="destination_only"`` is an arc set, and the hybrid's
LP lane passes each file the links of its candidate paths.

The whole assembly (graph construction included) runs under the
``lp.build`` span, the counterpart of the backends' ``lp.solve``; it
carries ``arcs`` (``"paths"`` or ``"full"``), ``rows`` and ``columns``.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.errors import InfeasibleError, SchedulingError
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LinExpr, Model, Solution, Variable
from repro.lp.constraint import Constraint, Sense
from repro.obs import registry as obs
from repro.timeexp.cache import GraphCache
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

#: Storage policies for :func:`build_postcard_model`.
STORAGE_FULL = "full"
STORAGE_DESTINATION_ONLY = "destination_only"

#: Stride for the fast assembler's packed ``node * stride + slot``
#: balance keys; bounds the representable horizon (slots per problem).
_NODE_KEY = 1 << 21

#: Assembly paths for :func:`build_postcard_model`.
ASSEMBLY_MODES = ("legacy", "fast")


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

    __slots__ = ("members", "_at")

    def __init__(self, members: Iterable[Tuple[Tuple[int, int], int, int]]):
        self.members = tuple(members)
        self._at: Dict[Tuple[int, int], tuple] = {}

    def keys_at(self, after: int, before: int) -> Tuple[Tuple[int, int], ...]:
        """Member keys existing ``after`` slots into a window with ``before``
        slots left after this one (memoised: sets outlive the builds)."""
        keys = self._at.get((after, before))
        if keys is None:
            keys = self._at[after, before] = tuple(
                key for key, lo, hi in self.members
                if lo <= after and hi <= before
            )
        return keys

    @classmethod
    def from_paths(cls, topology, source: int, destination: int, paths) -> "ArcSet":
        """The links of ``paths`` (node lists, ``source`` to
        ``destination``) plus holdover at their nodes, hop-bounded."""
        links = {hop for path in paths for hop in zip(path, path[1:])}
        hops = nx.single_source_shortest_path_length
        out = hops(nx.DiGraph(links), source)
        back = hops(nx.DiGraph((b, a) for a, b in links), destination)
        return cls(
            [(link.key, out[link.src], back[link.dst])
             for link in topology.links if link.key in links]
            + [((node, node), out[node], back[node])
               for node in topology.node_ids() if node in out and node in back]
        )


class PostcardModel:
    """A built (not yet solved) Postcard LP plus its variable maps."""

    def __init__(
        self,
        model: Model,
        graph: TimeExpandedGraph,
        requests: List[TransferRequest],
        flow_items: List[Tuple[int, Arc, Variable]],
        charge_vars: Dict[Tuple[int, int], Variable],
        fixed_charge_cost: float,
        capacity_rows=None,
    ):
        self.model = model
        self.graph = graph
        self.requests = requests
        #: (request id, arc, variable) per flow variable — the model's
        #: first ``len(flow_items)`` columns, in this order.
        self.flow_items = flow_items
        self.charge_vars = charge_vars
        #: sum(a_ij * X_ij(t-1)) over links the new files cannot touch;
        #: a constant added to the objective so it reports the full
        #: network-wide cost per slot.
        self.fixed_charge_cost = fixed_charge_cost
        #: (src, dst, slot) -> the capacity Constraint, for shadow prices.
        self.capacity_rows: Dict[Tuple[int, int, int], object] = capacity_rows or {}

    def solve(self, backend: str = "highs", **options) -> Tuple[TransferSchedule, Solution]:
        """Optimize and extract the store-and-forward schedule."""
        solution = self.model.solve(backend=backend, **options)
        items = self.flow_items
        volumes = solution.x[:len(items)]
        entries = []
        for i in np.flatnonzero(volumes > VOLUME_ATOL).tolist():
            request_id, arc, _ = items[i]
            entries.append(ScheduleEntry(
                request_id, arc.src, arc.dst, arc.slot, float(volumes[i]), arc.kind
            ))
        return TransferSchedule(entries), solution

    def charged_volumes(self, solution: Solution) -> Dict[Tuple[int, int], float]:
        """Optimal X_ij for the links the model optimizes over."""
        return {key: solution.value(var) for key, var in self.charge_vars.items()}

    def congestion_prices(self, solution: Solution) -> Dict[Tuple[int, int, int], float]:
        """Shadow price of each binding capacity row, in $/GB.

        The dual of the capacity constraint on (src, dst, slot) is the
        marginal saving one extra GB/slot of capacity there would buy —
        the LP-theoretic answer to "which link should we upgrade?".
        Only links whose price is positive appear; zero-price entries
        are filtered.  Requires the HiGHS backend (duals).
        """
        prices = {}
        for key, constraint in self.capacity_rows.items():
            dual = solution.dual(constraint)
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
    cost_fn_factory=None,
    charge_exempt=None,
    charged_volume_fn=None,
    predicted_volume_fn=None,
    graph_cache: Optional[GraphCache] = None,
    assembly: str = "legacy",
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
        allowed; the graph spans all their windows).
    storage:
        ``"full"`` (the paper) allows holdover at any datacenter;
        ``"destination_only"`` disables intermediate/source storage so
        data must keep moving — the ablation quantifying what
        store-and-forward itself contributes.
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
    graph_cache:
        Optional :class:`~repro.timeexp.cache.GraphCache` used to build
        the graph incrementally from the previous slot's arcs.
    assembly:
        ``"legacy"`` (operator algebra, the reference) or ``"fast"``
        (direct coefficient construction); the two produce bit-identical
        compiled problems.
    arc_sets:
        Optional :class:`ArcSet` (or ``None``: every arc) per request,
        same order: the file's variables exist only on its set's arcs.
        A file whose set leaves its source no out-arc raises
        :class:`InfeasibleError` — the pruning failed, not the problem —
        so the caller can widen to the full model.  Full storage only.
    """
    if not requests:
        raise SchedulingError("build_postcard_model needs at least one request")
    if storage not in (STORAGE_FULL, STORAGE_DESTINATION_ONLY):
        raise SchedulingError(f"unknown storage policy {storage!r}")
    if storage_capacity < 0:
        raise SchedulingError("storage_capacity must be non-negative")
    if storage_price < 0:
        raise SchedulingError("storage_price must be non-negative")
    if assembly not in ASSEMBLY_MODES:
        raise SchedulingError(
            f"unknown assembly mode {assembly!r}; available: "
            + ", ".join(ASSEMBLY_MODES)
        )
    pruned = arc_sets is not None and any(arc_sets)
    if not pruned:
        arc_sets = [None] * len(requests)
        if storage == STORAGE_DESTINATION_ONLY:
            # The ablation is an arc set too: every link at every slot,
            # holdover at the file's own destination only.
            links = tuple((link.key, 0, 0) for link in state.topology.links)
            by_destination = {
                node: ArcSet(links + (((node, node), 0, 0),))
                for node in {r.destination for r in requests}
            }
            arc_sets = [by_destination[r.destination] for r in requests]
    elif storage != STORAGE_FULL or len(arc_sets) != len(requests):
        raise SchedulingError(
            "arc_sets needs one entry per request and storage='full'"
        )

    with obs.span(
        "lp.build", assembly=assembly, requests=len(requests),
        arcs="paths" if pruned else "full",
    ) as build_span:
        start = min(r.release_slot for r in requests)
        end = max(r.release_slot + r.deadline_slots for r in requests)
        if graph_cache is not None:
            graph = graph_cache.build(
                start, end - start, capacity_fn=state.residual_capacity
            )
        else:
            graph = TimeExpandedGraph(
                state.topology,
                start_slot=start,
                horizon=end - start,
                capacity_fn=state.residual_capacity,
            )

        assemble = _assemble_fast if assembly == "fast" else _assemble_legacy
        built = assemble(
            state, graph, requests, arc_sets,
            InfeasibleError if pruned else SchedulingError,
            storage_capacity, storage_price, cost_fn_factory,
            charge_exempt, charged_volume_fn, predicted_volume_fn,
        )
        attrs = getattr(build_span, "attrs", None)
        if attrs is not None:
            attrs["rows"] = built.model.num_constraints
            attrs["columns"] = built.model.num_variables
        return built


def _assemble_legacy(
    state: NetworkState,
    graph: TimeExpandedGraph,
    requests: List[TransferRequest],
    arc_sets: Sequence[Optional[ArcSet]],
    no_exit_error: type,
    *pricing,
) -> PostcardModel:
    """Operator-algebra assembly — the executable reference.  ``pricing``
    is :func:`_finish`'s tail of storage and charging parameters."""
    model = Model("postcard")
    flow_items: List[Tuple[int, Arc, Variable]] = []
    #: per transit (link, slot): list of vars crossing it (for capacity
    #: and charge rows)
    arc_users: Dict[Arc, List[Variable]] = defaultdict(list)
    #: per holdover arc: vars of files *in transit* stored there (a
    #: file buffered at its own destination is delivered, not stored)
    storage_users: Dict[Arc, List[Variable]] = defaultdict(list)

    for request, arc_set in zip(requests, arc_sets):
        rid = request.request_id
        arcs = graph.arcs_for_request(request)
        if arc_set is not None:
            first, last = graph.request_window(request)
            arcs = [
                a for a in arcs
                if a.link_key in arc_set.keys_at(a.slot - first, last - a.slot - 1)
            ]
        # Node balance built incrementally: +1 on out-arcs, -1 on in-arcs.
        balance: Dict[Tuple[int, int], List[Tuple[float, Variable]]] = defaultdict(list)
        for arc in arcs:
            if arc.kind is ArcKind.TRANSIT and arc.capacity <= 0:
                continue  # fully committed link-slot: no variable at all
            var = model.add_variable(f"M[{rid},{arc.src},{arc.dst},{arc.slot}]")
            flow_items.append((rid, arc, var))
            if arc.kind is ArcKind.TRANSIT:
                arc_users[arc].append(var)
            elif arc.src != request.destination:
                storage_users[arc].append(var)
            balance[arc.tail].append((1.0, var))
            balance[arc.head].append((-1.0, var))

        source = graph.source_node(request)
        sink = graph.sink_node(request)
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

    return _finish(
        state, model, graph, requests, flow_items,
        arc_users.items(), storage_users.items(),
        lambda users, bound, name: model.add_constraint(
            LinExpr.sum(users) <= bound, name=name
        ),
        lambda x, users, committed, name: model.add_constraint(
            x >= LinExpr.sum(users) + committed, name=name
        ),
        *pricing,
    )


def _lin(coeffs: Dict[int, float], constant: float, model_id: int) -> LinExpr:
    """A LinExpr adopting ``coeffs`` without the constructor's copy.

    Only for freshly-built dictionaries that no other code aliases.
    """
    expr = LinExpr.__new__(LinExpr)
    expr.coeffs = coeffs
    expr.constant = constant
    expr._model_id = model_id
    return expr


def _assemble_fast(
    state: NetworkState,
    graph: TimeExpandedGraph,
    requests: List[TransferRequest],
    arc_sets: Sequence[Optional[ArcSet]],
    no_exit_error: type,
    *pricing,
) -> PostcardModel:
    """Direct-construction assembly, float-identical to the reference.

    Mirrors :func:`_assemble_legacy` row for row but writes each row's
    coefficient dictionary directly instead of going through the
    ``LinExpr`` operators: every coefficient is the exact float the
    operator chain would have produced (``1.0``, ``-1.0``, or a negated
    constant), in the same insertion order, so the compiled matrices are
    interchangeable bit for bit.  Arc grouping keys on ``id(arc)``
    (arc objects are unique within a graph) to avoid hashing frozen
    dataclasses in the hot loop.
    """
    model = Model("postcard")
    mid = model._id
    variables = model.variables
    constraints = model.constraints
    inf = float("inf")

    flow_items: List[Tuple[int, Arc, Variable]] = []
    #: id(arc) -> (arc, vars crossing it); insertion order matches the
    #: legacy Arc-keyed dicts because each arc object is first seen at
    #: the same point of the same iteration.
    arc_users: Dict[int, Tuple[Arc, List[Variable]]] = {}
    storage_users: Dict[int, Tuple[Arc, List[Variable]]] = {}

    # Hot-loop locals: every name below is touched once per (request,
    # arc) pair, so attribute/global lookups would dominate.
    by_slot = graph._by_slot
    transit_kind = ArcKind.TRANSIT
    make_var = Variable
    get_arc_entry = arc_users.get
    get_store_entry = storage_users.get
    #: Balance rows key on ``node_id * _NODE_KEY + slot`` instead of
    #: ``(node_id, slot)`` tuples — integer keys hash in one machine op
    #: and skip ~2 tuple allocations per arc in the hottest loop.
    #: Node ids are non-negative ints (Topology invariant) and slots
    #: stay far below the stride, so the encoding is collision-free.
    stride = _NODE_KEY

    #: Request windows overlap heavily, so everything that depends only
    #: on the (slot, arc) pair — attribute reads, the committed-capacity
    #: filter, the formatted name suffix — is computed once per slot,
    #: keyed by link, and replayed per request as plain tuple unpacking.
    #: Filtering at prep time preserves the legacy per-arc iteration
    #: order exactly.  The dict lives on the graph: for GraphCache-built
    #: graphs it is the cache's persistent store, so slots whose arc
    #: lists were reused unchanged keep their prepared tuples across
    #: consecutive builds.
    prepared = graph.assembly_prep

    def _prep(slot: int) -> dict:
        entries = {}
        for arc in by_slot.get(slot, ()):
            transit = arc.kind is transit_kind
            if transit and arc.capacity <= 0:
                continue  # fully committed link-slot: no variable
            src, dst = arc.src, arc.dst
            entries[src, dst] = (
                transit, src, dst, f"{src},{dst},{slot}]", arc, id(arc)
            )
        prepared[slot] = entries
        return entries

    # A file's whole window structure — name suffixes, arc order,
    # balance-row template — is a pure function of (arc set, first,
    # last): build it once and replay it per request with C-speed
    # comprehensions.  With no arc set every prepared arc is admitted;
    # with one, its members are looked up among the slot's prepared arcs
    # in the same construction order the reference's filter keeps.
    templates: Dict[tuple, tuple] = {}

    def _template(arc_set: Optional[ArcSet], first: int, last: int) -> tuple:
        suffixes: List[str] = []
        arcs: List[Arc] = []
        transit_offs: List[Tuple[int, Arc, int]] = []
        storage_offs: List[Tuple[int, Arc, int, int]] = []
        rows: Dict[int, List[Tuple[int, float]]] = {}
        off = 0
        for slot in range(first, last):
            entries = prepared.get(slot) or _prep(slot)
            if arc_set is None:
                chosen = entries.values()
            else:
                chosen = [
                    entries[key]
                    for key in arc_set.keys_at(slot - first, last - slot - 1)
                    if key in entries
                ]
            for transit, src, dst, suffix, arc, aid in chosen:
                suffixes.append(suffix)
                arcs.append(arc)
                if transit:
                    transit_offs.append((off, arc, aid))
                else:
                    storage_offs.append((off, arc, aid, src))
                rows.setdefault(src * stride + slot, []).append((off, 1.0))
                rows.setdefault(dst * stride + slot + 1, []).append((off, -1.0))
                off += 1
        tmpl = (suffixes, arcs, transit_offs, storage_offs, list(rows.items()))
        templates[(arc_set, first, last)] = tmpl
        return tmpl

    for request, arc_set in zip(requests, arc_sets):
        rid = request.request_id
        destination = request.destination
        first, last = graph.request_window(request)
        tmpl = templates.get((arc_set, first, last)) or _template(arc_set, first, last)
        suffixes, arcs, transit_offs, storage_offs, row_items = tmpl

        base = len(variables)
        prefix = f"M[{rid},"
        new_vars = [
            make_var(prefix + suffix, base + off, 0.0, inf, mid)
            for off, suffix in enumerate(suffixes)
        ]
        variables.extend(new_vars)
        flow_items.extend(zip(repeat(rid), arcs, new_vars))

        for off, arc, aid in transit_offs:
            entry = get_arc_entry(aid)
            if entry is None:
                arc_users[aid] = (arc, [new_vars[off]])
            else:
                entry[1].append(new_vars[off])
        for off, arc, aid, src in storage_offs:
            if src == destination:
                continue
            entry = get_store_entry(aid)
            if entry is None:
                storage_users[aid] = (arc, [new_vars[off]])
            else:
                entry[1].append(new_vars[off])

        balance = {
            key: {base + off: coef for off, coef in pairs}
            for key, pairs in row_items
        }
        source = request.source * stride + first
        sink = destination * stride + last
        if source not in balance:
            raise no_exit_error(
                f"file {rid}: no admissible arc leaves its source; "
                "the problem is trivially infeasible"
            )
        size = float(request.size_gb)
        for node, coeffs in balance.items():
            if node == source:
                con = Constraint(_lin(coeffs, -size, mid), Sense.EQ, f"src[{rid}]")
            elif node == sink:
                con = Constraint(_lin(coeffs, size, mid), Sense.EQ, f"snk[{rid}]")
            else:
                con = Constraint(
                    _lin(coeffs, 0.0, mid), Sense.EQ,
                    f"cons[{rid},{node // stride},{node % stride}]",
                )
            constraints.append(con)

    def le_row(users, bound, name):
        con = Constraint(
            _lin({var.index: 1.0 for var in users}, -float(bound), mid),
            Sense.LE, name,
        )
        constraints.append(con)
        return con

    def charge_row(x, users, committed, name):
        coeffs = {x.index: 1.0}
        for var in users:
            coeffs[var.index] = -1.0
        constraints.append(
            Constraint(_lin(coeffs, -float(committed), mid), Sense.GE, name)
        )

    return _finish(
        state, model, graph, requests, flow_items,
        arc_users.values(), storage_users.values(), le_row, charge_row,
        *pricing,
    )


def _finish(
    state, model, graph, requests, flow_items, arc_users, storage_users,
    le_row, charge_row, storage_capacity, storage_price, cost_fn_factory,
    charge_exempt, charged_volume_fn, predicted_volume_fn,
) -> PostcardModel:
    """Everything after the flow rows, shared by both assemblers; each
    brings its ``(arc, variables)`` pairs in first-use order and its way
    of writing a row: ``le_row(users, bound, name)`` adds ``sum(users) <=
    bound`` and returns the constraint, ``charge_row(x, users, committed,
    name)`` adds ``x >= sum(users) + committed``."""
    inf = float("inf")
    # Capacity rows: aggregate new traffic within residual capacity.
    capacity_rows = {
        (arc.src, arc.dst, arc.slot): le_row(
            users, arc.capacity, f"cap[{arc.src},{arc.dst},{arc.slot}]"
        )
        for arc, users in arc_users
        if arc.capacity != inf
    }
    # Storage rows: per-datacenter buffer capacity for in-transit data.
    if storage_capacity != inf:
        for arc, users in storage_users:
            le_row(users, storage_capacity, f"store[{arc.src},{arc.slot}]")

    # Charge rows: one X_ij per overlay link that new traffic can use.
    by_link: Dict[Tuple[int, int], Dict[int, List[Variable]]] = {}
    for arc, users in arc_users:
        by_link.setdefault(arc.link_key, {}).setdefault(arc.slot, []).extend(users)

    charge_vars: Dict[Tuple[int, int], Variable] = {}
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
        x = charge_vars[key] = model.add_variable(f"X[{key[0]},{key[1]}]", lb=prior)
        # One volumes-map fetch per link instead of one ledger call per
        # row; ``volumes.get(slot, 0.0)`` is exactly committed_volume().
        committed_map = state.ledger.usage(key[0], key[1]).volumes
        for slot, users in by_link[key].items():
            if charge_exempt is not None and charge_exempt(key[0], key[1], slot):
                continue
            committed = committed_map.get(slot, 0.0)
            if predicted_volume_fn is not None:
                committed += predicted_volume_fn(key[0], key[1], slot)
            charge_row(x, users, committed, f"chg[{key[0]},{key[1]},{slot}]")
        if cost_fn is None:
            objective_terms.append((link.price, x))
        else:
            objective_terms.append(
                (1.0, _link_cost_variable(model, key, x, cost_fn))
            )

    # Metered storage cost: price per GB-slot of in-transit buffering.
    storage_terms: List[Tuple[float, Variable]] = []
    if storage_price > 0.0:
        for _arc, users in storage_users:
            storage_terms.extend((storage_price, var) for var in users)

    model.minimize(
        LinExpr.from_terms(objective_terms + storage_terms, constant=fixed_cost)
    )
    return PostcardModel(
        model, graph, list(requests), flow_items, charge_vars, fixed_cost,
        capacity_rows,
    )


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
