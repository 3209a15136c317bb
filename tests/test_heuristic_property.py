"""Property-based deadline-guarantee tests for the fast lane (PR 4).

The fast lane's core promise: whatever it *admits*, it delivers — in
full, by the deadline, conserving flow at every relay, and within raw
link capacity.  Rejections are allowed (the admission test is
conservative); lateness never is.  Multi-slot arrival streams exercise
the headroom-first interaction with previously committed load.
"""

from hypothesis import given, settings, strategies as st

from repro.core.schedule import TransferSchedule
from repro.heuristic import FastLaneScheduler
from repro.invariants import deadlines
from repro.net.generators import complete_topology
from repro.traffic import TransferRequest


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


@st.composite
def streams(draw):
    """A multi-slot arrival stream: slot -> released requests."""
    num_dcs = draw(st.integers(3, 5))
    capacity = draw(st.sampled_from([15.0, 30.0]))
    seed = draw(st.integers(0, 30))
    num_slots = draw(st.integers(2, 4))
    by_slot = {}
    for slot in range(num_slots):
        count = draw(st.integers(0, 3))
        released = []
        for _ in range(count):
            src = draw(st.integers(0, num_dcs - 1))
            dst = draw(st.integers(0, num_dcs - 1))
            if dst == src:
                dst = (src + 1) % num_dcs
            size = draw(st.integers(2, 40))
            deadline = draw(st.integers(1, 5))
            released.append(
                TransferRequest(src, dst, float(size), deadline, release_slot=slot)
            )
        by_slot[slot] = released
    return num_dcs, capacity, seed, by_slot


@settings(max_examples=30, deadline=None)
@given(instances())
def test_admitted_requests_always_meet_deadlines(instance):
    num_dcs, capacity, seed, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    scheduler = FastLaneScheduler(topo, horizon=30, on_infeasible="drop")
    schedule = scheduler.on_slot(0, requests)

    rejected_ids = {r.request_id for r in scheduler.state.rejected}
    admitted = [r for r in requests if r.request_id not in rejected_ids]
    assert len(admitted) + len(rejected_ids) == len(requests)

    # Independent re-audit against raw capacity: full delivery,
    # in-window movement, store-and-forward conservation.
    schedule.validate(
        admitted,
        capacity_fn=lambda s, d, n: topo.link(s, d).capacity,
    )
    due = {request.request_id: request.last_slot for request in admitted}
    assert deadlines(scheduler.state.completions, due) == []
    # No entry may reference a rejected file.
    assert not [e for e in schedule.entries if e.request_id in rejected_ids]


@settings(max_examples=25, deadline=None)
@given(streams())
def test_streamed_admissions_never_violate_deadlines_or_capacity(stream):
    num_dcs, capacity, seed, by_slot = stream
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    scheduler = FastLaneScheduler(topo, horizon=30, on_infeasible="drop")

    merged = TransferSchedule()
    for slot in sorted(by_slot):
        merged.entries += scheduler.on_slot(slot, by_slot[slot]).entries

    all_requests = [r for released in by_slot.values() for r in released]
    rejected_ids = {r.request_id for r in scheduler.state.rejected}
    admitted = [r for r in all_requests if r.request_id not in rejected_ids]

    # Every admitted file completes on time...
    due = {request.request_id: request.last_slot for request in admitted}
    assert deadlines(scheduler.state.completions, due) == []
    # ...and the merged traffic of all slots respects raw capacity and
    # per-file feasibility (this is where headroom-first placement over
    # already committed load could overbook a link if it were wrong).
    merged.validate(
        admitted,
        capacity_fn=lambda s, d, n: topo.link(s, d).capacity,
    )


@settings(max_examples=25, deadline=None)
@given(instances())
def test_plan_then_commit_equals_on_slot(instance):
    """plan_slot + commit_plan (the hybrid's fast path) is on_slot."""
    num_dcs, capacity, seed, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)

    direct = FastLaneScheduler(topo, horizon=30, on_infeasible="drop")
    schedule_a = direct.on_slot(0, [r.with_release(0) for r in requests])

    staged = FastLaneScheduler(topo, horizon=30, on_infeasible="drop")
    plan = staged.plan_slot(0, [r.with_release(0) for r in requests])
    schedule_b = staged.commit_plan(plan)

    assert schedule_a.link_slot_volumes() == schedule_b.link_slot_volumes()
    assert (
        direct.state.current_cost_per_slot()
        == staged.state.current_cost_per_slot()
    )


# -- the window table ------------------------------------------------------


@st.composite
def tables(draw):
    """A state with history, gates and a forecast, plus a batch of adds."""
    from repro.core.state import NetworkState
    from repro.net.schedule import AvailabilityWindow, LinkSchedule
    from repro.sim.faults import FaultModel, Outage

    topo = complete_topology(3, capacity=20.0, seed=draw(st.integers(0, 20)))
    links = sorted(link.key for link in topo.links)
    state = NetworkState(topo, horizon=60)
    base = draw(st.integers(0, 5))
    width = draw(st.integers(1, 6))
    cell = st.tuples(st.sampled_from(links), st.integers(0, width - 1))
    volume = st.floats(0.01, 9.0, allow_nan=False)
    for (src, dst), offset in draw(st.lists(cell, max_size=8)):
        state.ledger.record(src, dst, base + offset, draw(volume))
    for src, dst in links:  # a paid peak somewhere above, at or below the load
        state._charged[(src, dst)] = draw(st.floats(0.0, 20.0, allow_nan=False))
    if draw(st.booleans()):
        (src, dst), offset = draw(cell)
        state.link_schedule = LinkSchedule(
            [AvailabilityWindow(src, dst, base + offset, base + offset + 1)]
        )
    if draw(st.booleans()):
        (src, dst), offset = draw(cell)
        state.fault_model = FaultModel([Outage(src, dst, base + offset, base + width)])
    reserved = {
        (src, dst, base + offset): draw(volume)
        for (src, dst), offset in draw(st.lists(cell, max_size=6))
    }
    adds = draw(st.lists(st.tuples(cell, volume), max_size=10))
    return state, links, base, width, reserved, adds


@settings(max_examples=60, deadline=None)
@given(tables(), st.booleans())
def test_window_rows_answer_like_the_scalar_chain(table, with_forecast):
    """After any adds, every cell of the table reads what the old
    tracker -> state -> ledger chain computed for it, bit for bit."""
    from tests.tracker_reference import ScalarTracker

    state, links, base, width, reserved, adds = table
    tracker = ScalarTracker(state)
    if with_forecast:
        tracker.reservation = lambda s, d, start, committed: [
            reserved.get((s, d, start + i), 0.0) for i in range(len(committed))
        ]
    tracker.reset(base)
    pending = {}
    for ((src, dst), offset), volume in adds:
        tracker.add(src, dst, base + offset, volume)
        key = (src, dst, base + offset)
        pending[key] = pending.get(key, 0.0) + volume

    peak = 0.0
    for src, dst in links:
        rows = tracker.rows(src, dst, base + width - 1)
        for i in range(width):
            slot = base + i
            load = pending.get((src, dst, slot), 0.0)
            committed = state.committed_volume(src, dst, slot)
            residual = max(0.0, state.residual_capacity(src, dst, slot) - load)
            paid = state.charged_volume(src, dst) - (committed + load)
            headroom = max(0.0, min(paid, residual))
            hold = reserved.get((src, dst, slot), 0.0) if with_forecast else 0.0
            expected = {
                (False, False): residual,
                (True, False): headroom,
                (False, True): max(0.0, residual - hold) if residual > 0 else residual,
                (True, True): max(0.0, headroom - hold) if headroom > 0 else headroom,
            }
            for (free, reserving), answer in expected.items():
                if reserving and not with_forecast:
                    continue  # no reservation row: the planner never asks
                assert rows.room(i, free, reserving) == answer
            assert tracker.residual(src, dst, slot) == residual
            assert tracker.headroom(src, dst, slot) == headroom
            assert tracker.forecast_residual(src, dst, slot) == expected[False, True]
            assert tracker.forecast_headroom(src, dst, slot) == expected[True, True]
            used = (committed + load) / 20.0
            assert rows.utilization(i) == tracker.utilization(src, dst, slot) == used
            if load > 0.0:
                peak = max(peak, used)
    assert tracker.peak_utilization() == peak
