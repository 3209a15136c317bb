"""Property-based feasibility tests for the greedy heuristic.

Whatever the instance, a schedule the heuristic *does* produce must be
fully feasible (delivery, deadlines, conservation, capacity), and its
cost must never beat the LP optimum on the same cold instance.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import InfeasibleError
from repro.baselines import GreedyStoreAndForwardScheduler
from repro.baselines.greedy import _forward_hop
from repro.core import PostcardScheduler
from repro.heuristic.tracker import LinkRows
from repro.invariants import deadlines
from repro.net.generators import complete_topology
from repro.traffic import TransferRequest
from repro.units import VOLUME_ATOL


@st.composite
def instances(draw):
    num_dcs = draw(st.integers(3, 6))
    capacity = draw(st.sampled_from([15.0, 30.0, 60.0]))
    seed = draw(st.integers(0, 30))
    count = draw(st.integers(1, 4))
    requests = []
    for _ in range(count):
        src = draw(st.integers(0, num_dcs - 1))
        dst = draw(st.integers(0, num_dcs - 1))
        if dst == src:
            dst = (src + 1) % num_dcs
        size = draw(st.integers(2, 40))
        deadline = draw(st.integers(1, 6))
        requests.append(TransferRequest(src, dst, float(size), deadline, release_slot=0))
    return num_dcs, capacity, seed, requests


@settings(max_examples=30, deadline=None)
@given(instances())
def test_greedy_schedules_are_feasible(instance):
    num_dcs, capacity, seed, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    scheduler = GreedyStoreAndForwardScheduler(topo, horizon=30)
    try:
        schedule = scheduler.on_slot(0, requests)
    except InfeasibleError:
        assume(False)
        return
    # commit() already validated against residual capacity; re-audit
    # the merged schedule independently against raw link capacity.
    schedule.validate(
        requests,
        capacity_fn=lambda s, d, n: topo.link(s, d).capacity,
    )
    due = {request.request_id: request.last_slot for request in requests}
    assert deadlines(scheduler.state.completions, due) == []


@settings(max_examples=20, deadline=None)
@given(instances())
def test_greedy_never_beats_lp(instance):
    num_dcs, capacity, seed, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)

    greedy = GreedyStoreAndForwardScheduler(topo, horizon=30)
    try:
        greedy.on_slot(0, [r.with_release(0) for r in requests])
    except InfeasibleError:
        assume(False)
        return

    lp = PostcardScheduler(topo, horizon=30)
    lp.on_slot(0, [r.with_release(0) for r in requests])
    assert (
        lp.state.current_cost_per_slot()
        <= greedy.state.current_cost_per_slot() + 1e-6
    )


_gb = st.floats(0.0, 40.0, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def hop_fills(draw):
    """One link's window rows, a window, arrivals inside it and a size."""
    span = draw(st.integers(1, 8))
    lo = draw(st.integers(0, span - 1))
    hi = draw(st.integers(lo, span - 1))
    cells = st.lists(_gb, min_size=span, max_size=span)
    committed = draw(cells)
    rows = LinkRows(
        capacity=50.0, price=1.0, charged=draw(_gb), reserved=None,
        residual=[max(0.0, r - c) for r, c in zip(draw(cells), committed)],
        committed=committed, pending=[0.0] * span,
    )
    arrivals = [v if lo <= i <= hi else 0.0 for i, v in enumerate(draw(cells))]
    size = draw(st.sampled_from([sum(arrivals), draw(_gb)]))
    assume(size > VOLUME_ATOL)
    return rows, lo, hi, arrivals, size


@settings(max_examples=200, deadline=None)
@given(hop_fills())
def test_forward_fill_never_outruns_arrivals_or_room(fill):
    rows, lo, hi, arrivals, size = fill
    sent = _forward_hop(rows, lo, hi, arrivals, size)
    if sent is None:
        return
    tol = max(VOLUME_ATOL, 1e-9 * size)
    assert sum(sent) == pytest.approx(size, abs=2 * tol)
    arrived = left = 0.0
    for i, volume in enumerate(sent):
        assert volume == 0.0 or lo <= i <= hi
        assert volume <= rows.room(i, False, False) + tol
        arrived += arrivals[i]
        left += volume
        assert left <= arrived + tol
