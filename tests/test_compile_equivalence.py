"""Equivalence suite: every fast path is pinned to its reference.

Three fast paths each claim *bit-identical* results, not merely close
ones:

* ``compile_model``'s vectorized COO lowering vs. the per-coefficient
  loop it replaced (``tests/lp_reference.py``: ``compile_legacy``);
* ``build_postcard_model``'s array assembler (the compiled matrices
  written directly from arc sets and residual capacities) vs. the
  operator-algebra assembler on a materialised time-expanded graph
  (``build_reference``), lowered by that loop — with and without cost
  functions, charge exemptions and charged-volume overrides;
* :class:`~repro.timeexp.cache.GraphCache` reuse vs. a from-scratch
  :class:`~repro.timeexp.graph.TimeExpandedGraph`.

The checks here compare raw matrices, bounds and column maps with exact
equality — any future change that lands a fast path a ULP, a row or a
column away from its reference fails loudly instead of drifting results.

Seen to fail under three deliberate breaks of the array path: dropping
the zero-residual mask (keep every column) fails the link-window case,
both late-slot cases and the property; swapping the first two charge
rows fails every matrix comparison here and the pruned one in
``tests/test_lp_arcs.py``; losing one sink's right-hand side (``b_eq``
zero there) fails all of those and the same-schedule check.  Three more
breaks hit the hooks (``test_hooks_match_the_reference``): keeping the
charge rows of exempt cells fails every ``exempt`` and ``all`` case;
dropping each link's last ``C_ij`` row fails every cost-function and
``all`` case; taking the prior ``X_ij(t-1)`` from the state instead of
``charged_volume_fn`` fails every ``prior`` and ``all`` case.  Each
also fails the property at 100 examples.
"""

import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charging.costfunc import LinearCost, PiecewiseLinearCost
from repro.core import build_postcard_model
from repro.core.state import NetworkState
from repro.errors import InfeasibleError
from repro.heuristic.paths import CandidatePathIndex
from repro.lp.compile import CompiledProblem, row_matrix
from repro.net.generators import complete_topology
from repro.net.schedule import LinkSchedule
from repro.timeexp.cache import GraphCache
from repro.timeexp.graph import ArcKind, TimeExpandedGraph
from repro.traffic import PaperWorkload
from repro.traffic.spec import TransferRequest
from tests.lp_model import Model, compile_model
from tests.lp_reference import as_scipy, build_reference, compile_legacy
from tests.schedule_reference import storage_slot_volumes

#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "10"))


def assert_compiled_identical(
    a: CompiledProblem, b: CompiledProblem, row_map: bool = True
):
    """Exact (not approximate) equality of two compiled problems
    (``row_map=False``: ``a`` was assembled as arrays and names no
    model constraints)."""
    assert a.maximize == b.maximize
    assert a.c0 == b.c0
    np.testing.assert_array_equal(a.c, b.c)
    np.testing.assert_array_equal(a.bounds, b.bounds)
    np.testing.assert_array_equal(a.b_ub, b.b_ub)
    np.testing.assert_array_equal(a.b_eq, b.b_eq)
    assert a.row_map == (b.row_map if row_map else [])
    for m1, m2 in ((a.a_ub, b.a_ub), (a.a_eq, b.a_eq)):
        assert m1.shape == m2.shape
        c1, c2 = as_scipy(m1), as_scipy(m2)
        for m in (c1, c2):
            m.sum_duplicates()
            m.sort_indices()
        np.testing.assert_array_equal(c1.indptr, c2.indptr)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)


def _postcard_instance(storage="full", **build_kw):
    topo = complete_topology(6, capacity=30.0, seed=2026)
    workload = PaperWorkload(
        topo, max_deadline=4, min_files=5, max_files=5, seed=7
    )
    requests = [r.with_release(0) for r in workload.requests_at(0)]
    state = NetworkState(topo, horizon=30)
    return state, requests


# -- compile_model: vectorized vs. per-coefficient lowering ---------------


def _random_model(seed: int) -> Model:
    """A seeded model exercising every lowering branch: all three
    senses, negative/zero coefficients, nonzero constants, free and
    bounded variables, and (on odd seeds) maximization."""
    rnd = random.Random(seed)
    model = Model(f"rand{seed}")
    n = rnd.randint(3, 12)
    xs = [
        model.add_variable(
            f"x{i}",
            lb=None if rnd.random() < 0.2 else rnd.uniform(-5.0, 0.0),
            ub=None if rnd.random() < 0.3 else rnd.uniform(1.0, 10.0),
        )
        for i in range(n)
    ]
    for _ in range(rnd.randint(2, 12)):
        terms = rnd.sample(xs, rnd.randint(1, n))
        # First coefficient is nonzero so the row never degenerates to a
        # constant (which the model would reject as trivially false).
        expr = rnd.choice([-2.5, -1.0, 1.0, 3.75]) * terms[0]
        for x in terms[1:]:
            expr = expr + rnd.choice([-2.5, -1.0, 0.0, 1.0, 3.75]) * x
        expr = expr + rnd.uniform(-4.0, 4.0)
        rhs = rnd.uniform(-10.0, 10.0)
        sense = rnd.choice(["le", "ge", "eq"])
        if sense == "le":
            model.add_constraint(expr <= rhs)
        elif sense == "ge":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr == rhs)
    objective = 0.0
    for x in rnd.sample(xs, rnd.randint(1, n)):
        objective = objective + rnd.uniform(-3.0, 3.0) * x
    objective = objective + rnd.uniform(-2.0, 2.0)
    if seed % 2:
        model.maximize(objective)
    else:
        model.minimize(objective)
    return model


@pytest.mark.parametrize("seed", range(10))
def test_vectorized_compile_matches_legacy_random(seed):
    model = _random_model(seed)
    assert_compiled_identical(compile_model(model), compile_legacy(model))


def test_vectorized_compile_matches_legacy_postcard():
    """The real thing: a full Postcard slot model, both lowerings."""
    state, requests = _postcard_instance()
    built = build_reference(state, requests)
    fast = compile_model(built.source)
    reference = compile_legacy(built.source)
    assert_compiled_identical(fast, reference)
    assert len(fast.row_map) == len(built.source.constraints)


def test_row_map_default_is_per_instance():
    """Regression: the row_map default must be a fresh list per
    problem, not a shared mutable class-level default."""
    empty = np.zeros(0)
    mat = row_matrix((), (), (), (0, 0))
    a = CompiledProblem(empty, 0.0, mat, empty, mat, empty, [], False)
    b = CompiledProblem(empty, 0.0, mat, empty, mat, empty, [], False)
    a.row_map.append(("ub", 0, 1.0))
    assert b.row_map == []


# -- build_postcard_model: array assembly vs. the reference ----------------


def assert_fast_matches_reference(state, requests, **kwargs):
    """The array path's problem and column maps equal the reference
    assembler's, lowered by the per-coefficient loop — or both refuse
    the batch."""
    try:
        fast = build_postcard_model(state, requests, **kwargs)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            build_reference(state, requests, **kwargs)
        return None
    legacy = build_reference(state, requests, **kwargs)
    assert isinstance(fast.model, CompiledProblem)
    assert_compiled_identical(fast.model, compile_legacy(legacy.source), row_map=False)
    for mine, reference in zip(fast.flow_columns, legacy.flow_columns):
        np.testing.assert_array_equal(mine, reference)
    assert fast.charge_columns == legacy.charge_columns
    assert fast.fixed_charge_cost == legacy.fixed_charge_cost
    assert fast.num_variables == legacy.num_variables
    assert fast.num_constraints == legacy.num_constraints
    return fast


def _commit_a_slot(state, requests):
    schedule, _ = build_postcard_model(state, requests).solve()
    state.commit(schedule, requests)


def _dark_windows(topology, rng, share=0.4):
    schedule = LinkSchedule()
    for link in topology.links:
        if rng.random() < share:
            phase = int(rng.integers(0, 4))
            schedule.set_windows(
                link.src, link.dst,
                [(start, start + 2) for start in range(phase, 40, 4)],
            )
    return schedule


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"storage": "destination_only"},
        {"storage_capacity": 40.0},
        {"storage_capacity": 40.0, "storage_price": 0.5},
        {"storage_price": 0.5, "transit_price": 1e-4},
    ],
    ids=["full", "dest-only", "finite-storage", "metered-storage", "transit-price"],
)
def test_fast_assembly_matches_legacy(kwargs):
    state, requests = _postcard_instance()
    assert_fast_matches_reference(state, requests, **kwargs)


def test_fast_assembly_matches_legacy_with_commitments():
    """After a committed slot the charge rows carry nonzero committed
    volumes and transit arcs lose residual capacity — the fast path
    must reproduce those constants exactly too."""
    state, requests = _postcard_instance()
    _commit_a_slot(state, requests)
    later = [r.with_release(1) for r in requests[:3]]
    assert_fast_matches_reference(state, later)


def test_fast_assembly_matches_legacy_under_link_windows():
    """Dark cells drop columns, and with them balance rows (or their
    first-use order) — slot by slot, as commitments pile up."""
    state, requests = _postcard_instance()
    lit = build_postcard_model(state, requests).num_variables
    state.link_schedule = _dark_windows(state.topology, np.random.default_rng(4))
    for slot in range(3):
        batch = [r.with_release(slot) for r in requests]
        assert assert_fast_matches_reference(state, batch).num_variables < lit
        _commit_a_slot(state, batch)


def test_fast_assembly_matches_legacy_with_predicted_volumes():
    state, requests = _postcard_instance()
    _commit_a_slot(state, requests)
    later = [r.with_release(1) for r in requests]
    assert_fast_matches_reference(
        state, later,
        predicted_volume_fn=lambda src, dst, slot: 0.25 * ((3 * src + dst + slot) % 5),
    )


#: The extension hooks, each on its own: a cost function per link (the
#: convex one has a flat first piece, so a zero slope and a zero
#: intercept), a charge exemption, a charged-volume override.
HOOKS = {
    "linear-cost": {"cost_fn_factory": lambda link: LinearCost(link.price)},
    "convex-cost": {"cost_fn_factory": lambda link: PiecewiseLinearCost(
        [(0.0, 0.0), (5.0, 0.0), (15.0, 10.0 * link.price), (40.0, 60.0 * link.price)]
    )},
    "exempt": {"charge_exempt": lambda src, dst, slot: (src + 2 * dst + slot) % 3 == 0},
    "prior": {"charged_volume_fn": lambda src, dst: 0.5 * ((src + dst) % 4)},
}


def _hooked(names):
    kwargs = {}
    for name in sorted(names):
        kwargs.update(HOOKS[name])
    return kwargs


@pytest.mark.parametrize("extras", [False, True], ids=["alone", "with-arcs-storage-forecast"])
@pytest.mark.parametrize("hooks", [[name] for name in HOOKS] + [list(HOOKS)],
                         ids=[*HOOKS, "all"])
def test_hooks_match_the_reference(hooks, extras):
    """Cost functions add a ``C_ij`` column and its rows after each
    ``X_ij``, exemptions drop charge rows, the override moves the
    ``X_ij`` bounds and the fixed cost — on a ledger with commitments,
    alone and beside pruned arc sets, a storage cap and forecasts."""
    state, requests = _postcard_instance()
    _commit_a_slot(state, requests)
    later = [r.with_release(1) for r in requests]
    base = {}
    if extras:
        index = CandidatePathIndex(state.topology, max_paths=1)
        base = dict(
            arc_sets=[index.arc_set(r) if n % 2 else None for n, r in enumerate(later)],
            storage_capacity=25.0,
            predicted_volume_fn=lambda src, dst, slot: 0.25 * ((3 * src + dst + slot) % 5),
        )
        assert any(base["arc_sets"])
    built = assert_fast_matches_reference(state, later, **base, **_hooked(hooks))
    plain = build_postcard_model(state, later, **base)
    if "linear-cost" in hooks or "convex-cost" in hooks:
        assert built.num_variables > plain.num_variables
    if "exempt" in hooks:
        assert built.model.num_inequalities < plain.model.num_inequalities
    if "prior" in hooks:
        assert not np.array_equal(built.model.bounds, plain.model.bounds)


@pytest.mark.parametrize("release", [2**21 + 5, 2**31 + 5])
def test_fast_assembly_does_not_depend_on_the_absolute_slot(release):
    """Rows are packed on ``slot - start``: the old assembler's
    ``node * 2**21 + slot`` keys named (and could have merged) rows
    wrongly from slot 2**21 on, and an int32 index would wrap at 2**31."""
    state, requests = _postcard_instance()
    near = assert_fast_matches_reference(state, requests)
    state.ledger.record(0, 1, release + 1, 30.0)  # one dark cell, late
    state.ledger.record(2, 3, release, 12.5)
    far = assert_fast_matches_reference(
        state, [r.with_release(release) for r in requests]
    )
    assert far.num_variables < near.num_variables
    assert far.flow_columns[3].min() == release


def _mixed_batch(rng, topology, index, slot, files, schedule=None):
    """Random files, every other one pruned to its candidate paths — a
    fast-lane rejection is what leaves ``None`` beside real arc sets."""
    nodes = topology.num_datacenters
    requests = []
    for _ in range(files):
        src = int(rng.integers(0, nodes))
        requests.append(TransferRequest(
            src, (src + int(rng.integers(1, nodes))) % nodes,
            round(float(rng.uniform(2.0, 18.0)), 3), int(rng.integers(1, 6)),
            release_slot=slot + int(rng.integers(0, 2)),
        ))
    sets = [
        index.arc_set(request, schedule) if n % 2 else None
        for n, request in enumerate(requests)
    ]
    return requests, sets


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(4, 6),
    files=st.integers(1, 8),
    warm_slots=st.integers(0, 2),
    windows=st.booleans(),
    storage_capacity=st.sampled_from([float("inf"), 25.0]),
    hooks=st.sets(st.sampled_from(sorted(HOOKS))),
)
def test_array_assembly_equals_the_reference(
    seed, nodes, files, warm_slots, windows, storage_capacity, hooks
):
    """Random batches (mixed release slots, ``None`` beside pruned arc
    sets, any mix of the extension hooks) on a ledger loaded by earlier
    slots, with and without dark windows: same matrices, same column
    maps, same refusals."""
    rng = np.random.default_rng(seed)
    topology = complete_topology(nodes, capacity=20.0, seed=seed)
    state = NetworkState(topology, horizon=60)
    if windows:
        state.link_schedule = _dark_windows(topology, rng)
    index = CandidatePathIndex(topology, max_paths=1)
    for slot in range(warm_slots + 1):
        requests, sets = _mixed_batch(
            rng, topology, index, slot, files, state.link_schedule
        )
        built = assert_fast_matches_reference(
            state, requests, arc_sets=sets, storage_capacity=storage_capacity,
            **_hooked(hooks),
        )
        if built is None:
            break
        try:
            schedule, _ = built.solve()
        except InfeasibleError:
            break
        state.commit(schedule, requests)


def test_fast_and_legacy_solve_to_same_schedule():
    state, requests = _postcard_instance()
    fast_sched, fast_sol = build_postcard_model(state, requests).solve()
    ref_sched, ref_sol = build_reference(state, requests).solve()
    assert fast_sol.objective == ref_sol.objective
    assert fast_sched.link_slot_volumes() == ref_sched.link_slot_volumes()
    assert storage_slot_volumes(fast_sched) == storage_slot_volumes(ref_sched)


# -- GraphCache: cached builds vs. from-scratch graphs -------------------


def _assert_graphs_equal(cached: TimeExpandedGraph, fresh: TimeExpandedGraph):
    assert cached.start_slot == fresh.start_slot
    assert cached.horizon == fresh.horizon
    assert cached.arcs == fresh.arcs  # Arc is a frozen dataclass: == is exact


def test_graph_cache_matches_fresh_builds():
    topo = complete_topology(5, capacity=20.0, seed=3)
    cache = GraphCache(topo)
    #: (src, dst, slot) -> consumed capacity, mutated between builds to
    #: mimic online commitments.
    consumed = {}

    def capacity_fn(src, dst, slot):
        return topo.link(src, dst).capacity - consumed.get((src, dst, slot), 0.0)

    for start in range(4):
        if start:  # consume some capacity each slot, like commits do
            consumed[(0, 1, start + 1)] = 5.0 * start
            consumed[(2, 3, start + 2)] = 2.5
        cached = cache.build(start, 4, capacity_fn=capacity_fn)
        fresh = TimeExpandedGraph(
            topo, start_slot=start, horizon=4, capacity_fn=capacity_fn
        )
        _assert_graphs_equal(cached, fresh)
    assert cache.reused_arcs > 0
    assert cache.refreshed_arcs > 0


def test_graph_cache_reuses_unchanged_slots():
    topo = complete_topology(4, capacity=10.0, seed=1)
    cache = GraphCache(topo)
    first = cache.build(0, 3)
    before = cache.reused_arcs
    second = cache.build(0, 3)
    # No capacity changes: every arc object is reused as-is.
    assert cache.reused_arcs == before + len(first.arcs)
    assert [id(a) for a in second.arcs] == [id(a) for a in first.arcs]


def test_graph_cache_invalidate_forgets_arcs():
    topo = complete_topology(4, capacity=10.0, seed=1)
    cache = GraphCache(topo)
    first = cache.build(0, 3)
    cache.invalidate()
    second = cache.build(0, 3)
    assert second.arcs == first.arcs
    assert not set(map(id, second.arcs)) & set(map(id, first.arcs))


def test_graph_cache_refresh_preserves_holdovers():
    topo = complete_topology(4, capacity=10.0, seed=1)
    cache = GraphCache(topo)
    cache.build(0, 3)

    def halved(src, dst, slot):
        return topo.link(src, dst).capacity / 2.0

    refreshed = cache.build(0, 3, capacity_fn=halved)
    for arc in refreshed.arcs:
        if arc.kind is ArcKind.TRANSIT:
            assert arc.capacity == 5.0
        else:
            assert arc.kind is ArcKind.HOLDOVER
    fresh = TimeExpandedGraph(topo, start_slot=0, horizon=3, capacity_fn=halved)
    _assert_graphs_equal(refreshed, fresh)
