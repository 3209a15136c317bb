"""Property-based feasibility invariants for optimized schedules.

For random topologies and random request batches, every schedule the
Postcard and flow-based optimizers emit must satisfy: full delivery,
deadline windows, per-link-slot capacity, conservation under its own
semantics, and a cost no worse than trivial upper bounds.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import InfeasibleError
from repro.core import PostcardScheduler
from repro.core.state import NetworkState
from repro.core.formulation import build_postcard_model
from repro.flowbased.model import build_flow_model
from repro.net.generators import complete_topology
from repro.traffic import TransferRequest


@st.composite
def instances(draw):
    num_dcs = draw(st.integers(3, 5))
    capacity = draw(st.sampled_from([20.0, 40.0, 80.0]))
    seed = draw(st.integers(0, 50))
    count = draw(st.integers(1, 4))
    requests = []
    for _ in range(count):
        src = draw(st.integers(0, num_dcs - 1))
        dst = draw(st.integers(0, num_dcs - 1))
        if dst == src:
            dst = (src + 1) % num_dcs
        size = draw(st.integers(1, 30))
        deadline = draw(st.integers(2, 5))
        requests.append(TransferRequest(src, dst, float(size), deadline, release_slot=0))
    return num_dcs, capacity, seed, requests


@settings(max_examples=25, deadline=None)
@given(instances())
def test_postcard_schedules_are_feasible(instance):
    num_dcs, capacity, seed, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    state = NetworkState(topo, horizon=50)
    built = build_postcard_model(state, requests)
    try:
        schedule, solution = built.solve()
    except InfeasibleError:
        assume(False)
        return
    schedule.validate(requests, capacity_fn=state.residual_capacity)
    for request in requests:
        completion = schedule.completion_slot(request)
        assert completion is not None and completion <= request.last_slot

    # Cost sanity: bounded below by the cheapest-path bound, above by
    # the full direct-burst bound.
    lower = sum(0.0 for _ in requests)  # objective >= 0 trivially
    assert solution.objective >= lower
    upper = sum(
        topo.link(r.source, r.destination).price * r.size_gb for r in requests
    )
    assert solution.objective <= upper + 1e-6


@settings(max_examples=25, deadline=None)
@given(instances())
def test_flow_schedules_are_feasible(instance):
    num_dcs, capacity, seed, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    state = NetworkState(topo, horizon=50)
    built = build_flow_model(state, requests)
    try:
        schedule, _ = built.solve()
    except InfeasibleError:
        assume(False)
        return
    schedule.validate(requests, capacity_fn=state.residual_capacity)


@settings(max_examples=20, deadline=None)
@given(instances())
def test_postcard_cost_at_most_flow_cost_offline(instance):
    """On a cold network with one batch, Postcard's optimum can only be
    at least as good as the flow-based optimum: every constant-rate
    fluid flow along simple paths has a store-and-forward counterpart
    whose per-link peaks are no larger... except that pipelining delays
    can force S&F to concentrate volume when deadlines are tight.  The
    robust invariant is therefore one-sided only for single-hop-
    reachable traffic with slack deadlines; here we assert the weaker
    universal bound: Postcard is never worse than DOUBLE the flow cost
    when both are feasible and deadlines allow at least 2 extra slots
    of slack (empirically tight enough to catch regressions).
    """
    num_dcs, capacity, seed, requests = instance
    # Give everything slack so S&F pipelining is not the bottleneck.
    requests = [
        TransferRequest(r.source, r.destination, r.size_gb, r.deadline_slots + 2)
        for r in requests
    ]
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)

    try:
        s_state = NetworkState(topo, horizon=50)
        _, post_solution = build_postcard_model(s_state, requests).solve()
        f_state = NetworkState(topo, horizon=50)
        _, flow_solution = build_flow_model(f_state, requests).solve()
    except InfeasibleError:
        assume(False)
        return
    assert post_solution.objective <= 2.0 * flow_solution.objective + 1e-6


# -- validate() groups by file in one pass ----------------------------------

#: The defects tests/test_schedule.py enumerates, by the message each raises.
_DEFECTS = ("delivers", "unknown", "outside", "conservation", "capacity")


@st.composite
def slot_plans(draw):
    """Several files' entries interleaved in one schedule, one maybe broken."""
    from repro.core.schedule import ScheduleEntry

    files = []
    for _ in range(draw(st.integers(1, 6))):
        relay = draw(st.booleans())
        size = float(draw(st.integers(1, 9)))
        request = TransferRequest(0, 2, size, draw(st.integers(3, 5)), release_slot=2)
        rid, first = request.request_id, request.release_slot
        if relay:  # 0 -> 1, wait a slot at 1 (implied), 1 -> 2
            entries = [
                ScheduleEntry(rid, 0, 1, first, size),
                ScheduleEntry(rid, 1, 2, first + 2, size),
            ]
        else:
            entries = [ScheduleEntry(rid, 0, 2, first, size)]
        files.append((request, entries))
    defect = draw(st.sampled_from((None,) + _DEFECTS))
    victim, entries = files[draw(st.integers(0, len(files) - 1))]
    last = entries[-1]
    if defect == "delivers":
        entries[-1] = ScheduleEntry(last.request_id, last.src, 2, last.slot, last.volume / 2)
    elif defect == "unknown":
        entries.append(ScheduleEntry(10**9, 0, 2, last.slot, 1.0))
    elif defect == "outside":
        entries[-1] = ScheduleEntry(
            last.request_id, last.src, 2, victim.last_slot + 1, last.volume
        )
    elif defect == "conservation":  # the file teleports: a second copy from node 1
        entries.append(ScheduleEntry(last.request_id, 1, 0, victim.release_slot, 1.0))
    merged = draw(st.permutations([e for _, es in files for e in es]))
    return [request for request, _ in files], merged, defect


@settings(max_examples=80, deadline=None)
@given(slot_plans())
def test_grouped_validate_raises_on_exactly_the_enumerated_defects(plan):
    from repro.errors import SchedulingError
    from repro.core.schedule import TransferSchedule

    requests, entries, defect = plan
    schedule = TransferSchedule(entries)
    load = max(schedule.link_slot_volumes().values())
    capacity = load / 2 if defect == "capacity" else load
    if defect is None:
        schedule.validate(requests, capacity_fn=lambda s, d, n: capacity)
        return
    with pytest.raises(SchedulingError, match=defect):
        schedule.validate(requests, capacity_fn=lambda s, d, n: capacity)
