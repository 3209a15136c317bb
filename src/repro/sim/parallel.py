"""Parallel seeded-run harness: fan comparison grids out to workers.

A comparison grid — ``runs`` seeds x N schedulers — is embarrassingly
parallel: every cell rebuilds its topology, workload, and fault model
from seeds and shares nothing with its neighbours.  This module turns
each cell into a picklable :class:`RunTask` executed by a worker
process, with three properties the test suite pins down:

* **Determinism** — a task carries only seeds and scheduler *names*
  (registry factories are lambdas and do not pickle); the worker
  rebuilds everything from those seeds, so the result of a cell is a
  pure function of the task.  Costs are identical for ``jobs=1``,
  ``jobs=4``, or the sequential :func:`~repro.sim.runner.run_comparison`
  loop, regardless of completion order.
* **Seeding parity** — the per-cell seeds are exactly the sequential
  driver's: topology ``base_seed + run``, workload
  ``base_seed + 1000 + run``, faults ``base_seed + run``.
* **Stable assembly** — worker results are reassembled in task order
  (run-major, scheduler-minor), so downstream aggregation sees the
  same list order the sequential loop would have produced.

``jobs <= 1`` executes the same tasks in-process, which keeps
debugging, profiling, and coverage simple.

History: introduced in PR 3 (fast-path scheduling) alongside the
incremental LP pipeline; PR 4 added the heuristic/hybrid schedulers to
the registry, so they fan out here like any other named scheduler (the
``escalations``/``fast_slots`` tallies ride back on the picklable
:class:`~repro.sim.metrics.SimulationResult`).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulation
from repro.sim.faults import FaultModel
from repro.sim.metrics import SimulationResult
from repro.sim.runner import ExperimentSetting, SchedulerComparison
from repro.net.generators import complete_topology, paper_topology
from repro.net.topology import Topology
from repro.traffic.workload import PaperWorkload

#: Topology families a task may name (must be rebuildable from seeds).
TOPOLOGY_PAPER = "paper"
TOPOLOGY_COMPLETE = "complete"


@dataclass(frozen=True)
class FaultSpec:
    """Picklable recipe for a seeded fault model.

    Workers rebuild the :class:`~repro.sim.faults.FaultModel` from this
    spec — either :meth:`FaultModel.random` over the task's topology
    (seeded, hence deterministic) or a JSON outage file via ``path``.
    ``announced=False`` demotes every outage to a surprise.
    """

    outage_probability: float = 0.15
    mean_duration: float = 2.0
    announced: bool = True
    path: Optional[str] = None

    def build(self, topology: Topology, num_slots: int, seed: int) -> FaultModel:
        if self.path is not None:
            faults = FaultModel.from_file(self.path)
            return faults.as_surprise() if not self.announced else faults
        return FaultModel.random(
            topology,
            num_slots,
            outage_probability=self.outage_probability,
            mean_duration=self.mean_duration,
            seed=seed,
            announced=self.announced,
        )


@dataclass(frozen=True)
class RunTask:
    """One (run index, scheduler) cell of a comparison grid.

    Carries scheduler *names* resolved against the registry inside the
    worker; factories themselves are typically lambdas and unpicklable.
    """

    setting: ExperimentSetting
    scheduler: str
    run: int
    base_seed: int = 0
    audit: bool = True
    faults: Optional[FaultSpec] = None
    topology: str = TOPOLOGY_PAPER

    def __post_init__(self):
        if self.topology not in (TOPOLOGY_PAPER, TOPOLOGY_COMPLETE):
            raise SimulationError(
                f"unknown topology family {self.topology!r} "
                f"(use {TOPOLOGY_PAPER!r} or {TOPOLOGY_COMPLETE!r})"
            )


def execute_task(task: RunTask) -> Tuple[str, int, SimulationResult]:
    """Run one grid cell from scratch (module-level: workers pickle it).

    Seeding mirrors :func:`~repro.sim.runner.run_comparison` exactly so
    parallel and sequential drivers produce identical per-run results.
    """
    # Resolved here, not at import time, to avoid a registry import
    # cycle (registry -> core -> ... -> sim).
    from repro.registry import scheduler_factory

    setting = task.setting
    seed = task.base_seed + task.run
    if task.topology == TOPOLOGY_PAPER:
        topology = paper_topology(
            capacity=setting.capacity,
            num_datacenters=setting.num_datacenters,
            seed=seed,
        )
    else:
        topology = complete_topology(
            setting.num_datacenters, capacity=setting.capacity, seed=seed
        )
    workload = PaperWorkload(
        topology,
        max_deadline=setting.max_deadline,
        min_files=setting.min_files,
        max_files=setting.max_files,
        min_size=setting.min_size,
        max_size=setting.max_size,
        seed=task.base_seed + 1000 + task.run,
        deadline_distribution=setting.deadline_distribution,
        min_deadline=setting.min_deadline,
    )
    horizon = setting.num_slots + setting.max_deadline
    scheduler = scheduler_factory(task.scheduler)(topology, horizon)
    if task.faults is not None:
        scheduler.state.fault_model = task.faults.build(
            topology, setting.num_slots, seed
        )
    result = Simulation(scheduler, workload, setting.num_slots).run(
        audit=task.audit
    )
    return task.scheduler, task.run, result


def _pool_context():
    """Fork when the platform has it (cheap, inherits the warmed-up
    interpreter); otherwise the default start method — every task is
    rebuilt from picklable specs, so spawn works identically."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_tasks(
    tasks: Sequence[RunTask], jobs: int = 1
) -> List[Tuple[str, int, SimulationResult]]:
    """Execute tasks, preserving input order in the returned list.

    ``jobs <= 1`` runs in-process; otherwise a process pool of ``jobs``
    workers.  ``Executor.map`` yields in submission order however the
    cells actually interleave, which is what makes downstream
    aggregation independent of scheduling noise.
    """
    if jobs < 0:
        raise SimulationError(f"jobs must be >= 0, got {jobs}")
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [execute_task(task) for task in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as pool:
        return list(pool.map(execute_task, tasks))


def comparison_tasks(
    setting: ExperimentSetting,
    schedulers: Sequence[str],
    runs: int = 10,
    base_seed: int = 0,
    audit: bool = True,
    faults: Optional[FaultSpec] = None,
    topology: str = TOPOLOGY_PAPER,
) -> List[RunTask]:
    """The full grid in the sequential driver's iteration order
    (run-major, scheduler-minor)."""
    return [
        RunTask(
            setting=setting,
            scheduler=name,
            run=run,
            base_seed=base_seed,
            audit=audit,
            faults=faults,
            topology=topology,
        )
        for run in range(runs)
        for name in schedulers
    ]


def run_comparison_parallel(
    setting: ExperimentSetting,
    schedulers: Sequence[str],
    runs: int = 10,
    base_seed: int = 0,
    jobs: int = 1,
    audit: bool = True,
    faults: Optional[FaultSpec] = None,
    topology: str = TOPOLOGY_PAPER,
) -> SchedulerComparison:
    """Parallel counterpart of :func:`~repro.sim.runner.run_comparison`.

    Takes registry scheduler *names* instead of factories (tasks must
    pickle) and an optional :class:`FaultSpec` instead of a fault
    factory.  With default factories and the same seeds, the returned
    comparison carries cost lists identical to the sequential driver's
    for any job count.
    """
    tasks = comparison_tasks(
        setting,
        schedulers,
        runs=runs,
        base_seed=base_seed,
        audit=audit,
        faults=faults,
        topology=topology,
    )
    comparison = SchedulerComparison(setting=setting, runs=runs)
    for name, _run, result in run_tasks(tasks, jobs=jobs):
        comparison.costs.setdefault(name, []).append(result.final_cost_per_slot)
        comparison.results.setdefault(name, []).append(result)
    return comparison
