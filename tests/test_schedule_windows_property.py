"""Property: no plan ever places volume on a link outside its windows.

The acceptance bar for PR 9's time-varying topologies: under random
availability schedules and random workloads, both lanes — the fast
lane's window-aware ALAP placement and the LP over the gated
time-expanded graph — must keep every committed link-slot volume
inside the link's windows, with flow conservation intact at window
edges (data waits on holdover arcs while a link is dark).  Rejections
are always allowed; dark-slot traffic never is.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.heuristic import FastLaneScheduler
from repro.invariants import cells, deadlines
from repro.net import AvailabilityWindow, LinkSchedule
from repro.net.generators import complete_topology
from repro.registry import make_scheduler, scheduler_names
from repro.sim import Simulation
from repro.traffic import PaperWorkload, TransferRequest


@st.composite
def windowed_instances(draw):
    num_dcs = draw(st.integers(3, 5))
    capacity = draw(st.sampled_from([15.0, 30.0, 60.0]))
    seed = draw(st.integers(0, 20))
    horizon = 12

    # A random subset of links gets random windows; some may stay dark.
    schedule = LinkSchedule()
    num_windowed = draw(st.integers(1, 6))
    for _ in range(num_windowed):
        src = draw(st.integers(0, num_dcs - 1))
        dst = draw(st.integers(0, num_dcs - 1))
        if dst == src:
            dst = (src + 1) % num_dcs
        schedule.schedule_link(src, dst)
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, horizon - 1))
            length = draw(st.integers(1, 4))
            schedule.add_window(
                AvailabilityWindow(src, dst, start, start + length)
            )

    count = draw(st.integers(1, 4))
    requests = []
    for _ in range(count):
        src = draw(st.integers(0, num_dcs - 1))
        dst = draw(st.integers(0, num_dcs - 1))
        if dst == src:
            dst = (src + 1) % num_dcs
        size = draw(st.integers(2, 30))
        deadline = draw(st.integers(1, 6))
        requests.append(
            TransferRequest(src, dst, float(size), deadline, release_slot=0)
        )
    return num_dcs, capacity, seed, schedule, requests


@settings(max_examples=30, deadline=None)
@given(windowed_instances())
def test_fast_lane_never_uses_dark_slots(instance):
    num_dcs, capacity, seed, schedule, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    scheduler = FastLaneScheduler(topo, horizon=30, on_infeasible="drop")
    scheduler.state.link_schedule = schedule
    planned = scheduler.on_slot(0, requests)

    assert cells(scheduler.state) == []
    # Admitted files still complete by deadline — window edges must not
    # break the deadline guarantee, only tighten admission.
    rejected_ids = {r.request_id for r in scheduler.state.rejected}
    admitted = [r for r in requests if r.request_id not in rejected_ids]
    due = {request.request_id: request.last_slot for request in admitted}
    assert deadlines(scheduler.state.completions, due) == []
    # Conservation at window edges: the committed schedule revalidates
    # against window-gated raw capacity (dark slots carry nothing).
    planned.validate(
        admitted,
        capacity_fn=lambda s, d, n: (
            topo.link(s, d).capacity if schedule.is_up(s, d, n) else 0.0
        ),
    )


@pytest.mark.parametrize("name", scheduler_names())
@settings(max_examples=15, deadline=None)
@given(instance=windowed_instances())
def test_lp_scheduler_never_uses_dark_slots(name, instance):
    """Every registered scheduler, the LP lanes included; the replanner
    executes one slot at a time, so its slots run until it drains."""
    num_dcs, capacity, seed, schedule, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    scheduler = make_scheduler(name, topo, horizon=30)
    scheduler.state.link_schedule = schedule
    scheduler.on_slot(0, requests)
    slot = 0
    while getattr(scheduler, "active", None):
        slot += 1
        scheduler.on_slot(slot, [])
    assert cells(scheduler.state) == []


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10))
def test_leo_simulation_audits_clean(seed):
    """A LEO-preset end-to-end run completes with zero dark-slot volume.

    The engine's audit raises on dark-slot traffic, so a clean run *is*
    the assertion; the explicit re-check keeps the property visible
    even if the audit changes.
    """
    from repro.net.presets import leo_pass_schedule

    num_slots = 8
    topo = complete_topology(5, capacity=30.0, seed=seed)
    schedule = leo_pass_schedule(
        topo, num_slots + 4, fraction=0.5, period=4, pass_length=2, seed=seed
    )
    scheduler = make_scheduler("hybrid", topo, horizon=num_slots + 4)
    scheduler.state.link_schedule = schedule
    workload = PaperWorkload(topo, max_deadline=3, max_files=3, seed=seed + 1)
    Simulation(scheduler, workload, num_slots).run()
    assert cells(scheduler.state) == []
