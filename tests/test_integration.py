"""Integration tests: multi-slot online operation across modules."""

import pytest

from repro.baselines import DirectScheduler
from repro.charging import MaxCharging, PercentileCharging
from repro.core import PostcardScheduler
from repro.extensions import maximize_bulk_throughput
from repro.flowbased import FlowBasedScheduler
from repro.invariants import bill
from repro.net.generators import complete_topology, two_region_topology
from repro.sim import Simulation
from repro.traffic import PaperWorkload, TraceWorkload, TransferRequest


def test_multi_slot_online_consistency():
    """Cost per slot from the state equals the ledger's max-charging
    bill after a multi-slot run, and every completion is in time."""
    topo = complete_topology(5, capacity=40.0, seed=21)
    workload = PaperWorkload(topo, max_deadline=4, max_files=4, seed=2)
    scheduler = PostcardScheduler(topo, horizon=30, on_infeasible="drop")
    result = Simulation(scheduler, workload, num_slots=8).run()
    state = scheduler.state
    assert state.current_cost_per_slot() == pytest.approx(
        state.ledger.cost_per_slot(MaxCharging()), rel=1e-9
    )
    assert result.max_lateness() == 0


def test_three_schedulers_on_identical_trace():
    """Same trace for all three: under ample capacity the flow-based
    cost never exceeds the direct cost (it can always imitate it)."""
    topo = complete_topology(5, capacity=200.0, seed=4)
    requests = [
        TransferRequest(0, 1, 60.0, 3, release_slot=0),
        TransferRequest(1, 2, 90.0, 3, release_slot=1),
        TransferRequest(2, 3, 40.0, 2, release_slot=2),
        TransferRequest(3, 4, 70.0, 4, release_slot=2),
    ]

    costs = {}
    for name, factory in {
        "postcard": lambda: PostcardScheduler(topo, horizon=20),
        "flow": lambda: FlowBasedScheduler(topo, horizon=20),
        "direct": lambda: DirectScheduler(topo, horizon=20),
    }.items():
        scheduler = factory()
        trace = TraceWorkload(
            [r.with_release(r.release_slot) for r in requests]
        )
        Simulation(scheduler, trace, num_slots=6).run()
        costs[name] = scheduler.state.current_cost_per_slot()

    assert costs["flow"] <= costs["direct"] + 1e-6


def test_percentile_rebilling_cheaper_than_max():
    """Billing the same recorded traffic at q=90 can only be cheaper
    than at q=100."""
    topo = complete_topology(4, capacity=50.0, seed=6)
    workload = PaperWorkload(topo, max_deadline=3, max_files=3, seed=3)
    scheduler = PostcardScheduler(topo, horizon=40, on_infeasible="drop")
    Simulation(scheduler, workload, num_slots=10).run()
    ledger = scheduler.state.ledger
    assert ledger.total_cost(PercentileCharging(90)) <= ledger.total_cost(MaxCharging()) + 1e-9


def test_bulk_extension_after_online_run():
    """Run the optimizer online, then fill leftover headroom with bulk
    backups — the bulk schedule must not raise any charged volume."""
    topo = complete_topology(4, capacity=50.0, seed=8)
    workload = PaperWorkload(topo, max_deadline=3, max_files=3, seed=5)
    scheduler = PostcardScheduler(topo, horizon=40, on_infeasible="drop")
    Simulation(scheduler, workload, num_slots=5).run()
    state = scheduler.state
    cost_before = state.current_cost_per_slot()

    backups = [
        TransferRequest(0, 2, 500.0, 6, release_slot=6),
        TransferRequest(1, 3, 500.0, 6, release_slot=6),
    ]
    result = maximize_bulk_throughput(state, backups)
    assert result.total_delivered > 0
    # Committing the bulk schedule must not change the bill.
    state.commit(result.schedule, [], validate=False)
    assert bill(state) == []
    assert state.current_cost_per_slot() == pytest.approx(cost_before)


def test_two_region_relay_exploits_cheap_links():
    """With expensive transcontinental links and cheap domestic ones,
    Postcard should never pay more than the direct baseline on the
    same trace."""
    topo = two_region_topology(3, capacity=100.0, intra_price=1.0, inter_price=9.0, seed=1)
    requests = [
        TransferRequest(0, 3, 30.0, 4, release_slot=0),
        TransferRequest(1, 4, 30.0, 4, release_slot=0),
        TransferRequest(2, 5, 30.0, 4, release_slot=0),
    ]
    post = PostcardScheduler(topo, horizon=20)
    post.on_slot(0, [r.with_release(0) for r in requests])
    direct = DirectScheduler(topo, horizon=20)
    direct.on_slot(0, [r.with_release(0) for r in requests])
    assert (
        post.state.current_cost_per_slot()
        <= direct.state.current_cost_per_slot() + 1e-6
    )


def test_storage_is_actually_used_under_contention():
    """The Fig. 3 mechanism generalizes: under tight capacity and
    overlapping traffic, the Postcard optimum uses holdover storage."""
    from repro.net.generators import fig3_topology

    scheduler = PostcardScheduler(fig3_topology(), horizon=50)
    files = [
        TransferRequest(2, 4, 8.0, 4, release_slot=0),
        TransferRequest(1, 4, 10.0, 2, release_slot=0),
    ]
    schedule = scheduler.on_slot(0, files)
    assert schedule.total_storage_volume() > 0
    assert scheduler.state.storage_used > 0


def test_online_worse_or_equal_than_offline_batch():
    """Scheduling files slot by slot (online) can never beat giving the
    optimizer all files at once (offline), on the same network."""
    topo = complete_topology(4, capacity=30.0, seed=13)
    batch = [
        TransferRequest(0, 1, 25.0, 4, release_slot=0),
        TransferRequest(1, 2, 25.0, 4, release_slot=0),
        TransferRequest(2, 3, 25.0, 4, release_slot=0),
    ]

    offline = PostcardScheduler(topo, horizon=20)
    offline.on_slot(0, [r.with_release(0) for r in batch])

    online = PostcardScheduler(topo, horizon=20)
    for i, request in enumerate(batch):
        # Release the same files one slot apart, as an online stream.
        online.on_slot(i, [request.with_release(i)])

    assert (
        offline.state.current_cost_per_slot()
        <= online.state.current_cost_per_slot() + 1e-6
    )
