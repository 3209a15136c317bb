"""Determinism of the parallel run harness.

Every :class:`~repro.sim.parallel.RunTask` rebuilds its topology,
workload, and fault model from seeds inside the worker
(:func:`~repro.sim.parallel.build_cell`), so a comparison grid's
results must be a pure function of (setting, schedulers, seeds) —
identical for ``jobs=1``, ``jobs=2`` and ``jobs=4``, by registry name
or by factory, with or without seeded surprise outages.
"""

import pytest

from repro.errors import SimulationError
from repro.registry import scheduler_factory
from repro.sim import (
    ExperimentSetting,
    FaultSpec,
    RunTask,
    run_comparison,
    run_tasks,
)

SETTING = ExperimentSetting(
    "par-test",
    capacity=30.0,
    max_deadline=3,
    num_datacenters=5,
    num_slots=5,
    max_files=3,
)
SCHEDULERS = ["postcard", "direct"]


def _costs(jobs, base_seed, faults=None, runs=3):
    comparison = run_comparison(
        SETTING,
        SCHEDULERS,
        runs=runs,
        base_seed=base_seed,
        jobs=jobs,
        fault_factory=faults,
    )
    return comparison.costs


@pytest.mark.parametrize("base_seed", [0, 17, 4242])
def test_job_count_never_changes_results(base_seed):
    serial = _costs(jobs=1, base_seed=base_seed)
    assert _costs(jobs=2, base_seed=base_seed) == serial
    assert _costs(jobs=4, base_seed=base_seed) == serial


def test_parallel_matches_sequential_driver():
    factories = {name: scheduler_factory(name) for name in SCHEDULERS}
    sequential = run_comparison(SETTING, factories, runs=3, base_seed=9)
    parallel = run_comparison(SETTING, SCHEDULERS, runs=3, base_seed=9, jobs=4)
    assert parallel.costs == sequential.costs
    assert list(parallel.results) == list(sequential.results)


def test_run_comparison_jobs_delegates():
    factories = {name: scheduler_factory(name) for name in SCHEDULERS}
    serial = run_comparison(SETTING, factories, runs=2, base_seed=3)
    fanned = run_comparison(SETTING, factories, runs=2, base_seed=3, jobs=2)
    assert fanned.costs == serial.costs


def test_determinism_under_surprise_faults():
    faults = FaultSpec(
        outage_probability=0.3, mean_duration=2.0, announced=False
    )
    serial = _costs(jobs=1, base_seed=5, faults=faults)
    assert _costs(jobs=2, base_seed=5, faults=faults) == serial
    assert _costs(jobs=4, base_seed=5, faults=faults) == serial
    # The fault model actually bit: some run saw disrupted traffic.
    comparison = run_comparison(
        SETTING, SCHEDULERS, runs=3, base_seed=5, jobs=2, fault_factory=faults
    )
    assert any(
        r.disrupted_gb > 0
        for results in comparison.results.values()
        for r in results
    )


def test_results_assembled_in_task_order():
    tasks = [
        RunTask(setting=SETTING, scheduler=name, run=run, base_seed=1)
        for run in range(2)
        for name in SCHEDULERS
    ]
    out = run_tasks(tasks, jobs=3)
    assert [(name, run) for name, run, _ in out] == [
        (t.scheduler, t.run) for t in tasks
    ]


def test_run_task_rejects_unknown_topology_family():
    with pytest.raises(SimulationError):
        RunTask(setting=SETTING, scheduler="postcard", run=0, topology="ring")


def test_negative_jobs_rejected():
    with pytest.raises(SimulationError):
        run_tasks([], jobs=-1)


def test_jobs_with_factory_overrides_rejected():
    factories = {name: scheduler_factory(name) for name in SCHEDULERS}
    with pytest.raises(SimulationError):
        run_comparison(
            SETTING,
            factories,
            runs=1,
            jobs=2,
            fault_factory=lambda t, s, seed: None,
        )


def test_jobs_with_unregistered_scheduler_rejected():
    with pytest.raises(SimulationError):
        run_comparison(
            SETTING, {"bespoke": lambda t, h: None}, runs=1, jobs=2
        )
