"""Unit tests for the experiment runner."""

import pytest

from repro.baselines import DirectScheduler
from repro.core import PostcardScheduler
from repro.flowbased import FlowBasedScheduler
from repro.sim.runner import (
    FIG4,
    FIG5,
    FIG6,
    FIG7,
    ExperimentSetting,
    run_comparison,
)


def tiny(setting_name, capacity, max_deadline):
    return ExperimentSetting(
        setting_name,
        capacity=capacity,
        max_deadline=max_deadline,
        num_datacenters=4,
        num_slots=4,
        max_files=3,
    )


FACTORIES = {
    "postcard": lambda t, h: PostcardScheduler(t, h, on_infeasible="drop"),
    "flow-based": lambda t, h: FlowBasedScheduler(t, h, on_infeasible="drop"),
}


def test_paper_settings_pinned():
    assert (FIG4.capacity, FIG4.max_deadline) == (100.0, 3)
    assert (FIG5.capacity, FIG5.max_deadline) == (100.0, 8)
    assert (FIG6.capacity, FIG6.max_deadline) == (30.0, 3)
    assert (FIG7.capacity, FIG7.max_deadline) == (30.0, 8)
    for setting in (FIG4, FIG5, FIG6, FIG7):
        assert setting.num_datacenters == 20
        assert setting.num_slots == 100
        assert setting.max_files == 20
        assert (setting.min_size, setting.max_size) == (10.0, 100.0)


def test_run_comparison_structure():
    comparison = run_comparison(
        tiny("t", 40.0, 3), FACTORIES, runs=2, base_seed=5
    )
    assert set(comparison.costs) == {"postcard", "flow-based"}
    assert all(len(v) == 2 for v in comparison.costs.values())
    ci = comparison.interval("postcard")
    assert ci.n == 2
    assert comparison.ratio("postcard", "postcard") == pytest.approx(1.0)
    table = comparison.to_table()
    assert "postcard" in table and "cost/slot" in table


def test_same_run_same_traffic():
    """All schedulers in one run index must see identical workloads:
    the direct scheduler's requested GB equals the others'."""
    factories = dict(FACTORIES)
    factories["direct"] = lambda t, h: DirectScheduler(t, h, on_infeasible="drop")
    comparison = run_comparison(tiny("t", 40.0, 3), factories, runs=1, base_seed=3)
    requested = {
        name: comparison.results[name][0].total_requested_gb for name in factories
    }
    assert len(set(round(v, 6) for v in requested.values())) == 1


def test_deterministic_given_seed():
    a = run_comparison(tiny("t", 40.0, 3), FACTORIES, runs=1, base_seed=9)
    b = run_comparison(tiny("t", 40.0, 3), FACTORIES, runs=1, base_seed=9)
    assert a.costs == b.costs


def test_describe():
    text = tiny("x", 30.0, 8).describe()
    assert "c=30" in text and "max T=8" in text


def test_custom_topology_and_workload_factories():
    from repro.net.generators import ring_topology
    from repro.traffic import PoissonWorkload

    seen = {"topologies": 0, "workloads": 0}

    def topo_factory(setting, seed):
        seen["topologies"] += 1
        return ring_topology(5, capacity=setting.capacity, price=2.0)

    def workload_factory(topology, setting, seed):
        seen["workloads"] += 1
        return PoissonWorkload(
            topology, max_deadline=setting.max_deadline, rate=1.0, seed=seed
        )

    comparison = run_comparison(
        tiny("custom", 40.0, 3),
        FACTORIES,
        runs=2,
        base_seed=4,
        topology_factory=topo_factory,
        workload_factory=workload_factory,
    )
    assert seen["topologies"] == 2               # one per run
    assert seen["workloads"] == 2 * len(FACTORIES)
    # The ring actually got used: schedulers saw 5 datacenters.
    any_result = comparison.results["postcard"][0]
    assert any_result.num_slots == 4


def test_fault_factory_attaches_per_scheduler_models():
    from repro.sim.faults import FaultModel

    built = []

    def fault_factory(topology, setting, seed):
        fm = FaultModel.random(
            topology,
            num_slots=setting.num_slots,
            outage_probability=0.5,
            seed=seed,
            announced=False,
        )
        built.append(fm)
        return fm

    comparison = run_comparison(
        tiny("chaos", 40.0, 3),
        FACTORIES,
        runs=2,
        base_seed=7,
        fault_factory=fault_factory,
    )
    # One fresh model per (run, scheduler): reveals never leak.
    assert len(built) == 2 * len(FACTORIES)
    assert len(set(map(id, built))) == len(built)
    for results in comparison.results.values():
        for result in results:
            assert result.salvaged_gb + result.lost_gb == pytest.approx(
                result.disrupted_gb
            )
    if any(
        r.disrupted_gb > 0
        for results in comparison.results.values()
        for r in results
    ):
        table = comparison.to_table()
        assert "salvaged" in table and "lost" in table
