"""Seeded grid cells: how a seed becomes a run, and the worker fan-out.

A comparison grid — ``runs`` seeds x N schedulers — is embarrassingly
parallel: every cell rebuilds its topology, workload, and fault model
from seeds and shares nothing with its neighbours.  Each cell is a
:class:`RunTask`, :func:`build_cell` is the only place its seeds turn
into a scheduler and a workload, and :func:`run_tasks` executes cells
in-process or in worker processes — the one recipe behind
:func:`~repro.sim.runner.run_comparison`, ``repro figure`` and ``repro
simulate``, with three properties the test suite pins down:

* **Determinism** — the result of a cell is a pure function of its
  task, so costs are identical for ``jobs=1`` and ``jobs=4`` regardless
  of completion order.  A task of scheduler *names*, a topology family,
  a :class:`FaultSpec` and paths pickles and may cross to a worker
  (registry factories are lambdas and do not); a task holding a
  callable runs in-process only.
* **Seeding** — topology and faults ``base_seed + run``, workload
  ``base_seed + 1000 + run``: every scheduler of a run index faces the
  same network and the same arrivals.
* **Stable assembly** — results come back in task order (run-major,
  scheduler-minor) however the cells actually interleave.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.sim.engine import Simulation
from repro.sim.faults import FaultModel
from repro.sim.metrics import SimulationResult
from repro.sim.runner import ExperimentSetting, SchedulerFactory
from repro.net.generators import complete_topology, paper_topology
from repro.net.schedule import LinkSchedule
from repro.net.topology import Topology
from repro.traffic.workload import PaperWorkload

#: Topology families a task may name (must be rebuildable from seeds).
TOPOLOGY_PAPER = "paper"
TOPOLOGY_COMPLETE = "complete"


@dataclass(frozen=True)
class FaultSpec:
    """Picklable recipe for a seeded fault model.

    A fault factory that can cross to a worker: called with the cell's
    ``(topology, setting, seed)`` it rebuilds the
    :class:`~repro.sim.faults.FaultModel` — either
    :meth:`FaultModel.random` over the topology (seeded, hence
    deterministic) or a JSON outage file via ``path``.
    ``announced=False`` demotes every outage to a surprise.
    """

    outage_probability: float = 0.15
    mean_duration: float = 2.0
    announced: bool = True
    path: Optional[str] = None

    def __call__(
        self, topology: Topology, setting: ExperimentSetting, seed: int
    ) -> FaultModel:
        if self.path is not None:
            faults = FaultModel.from_file(self.path)
            return faults.as_surprise() if not self.announced else faults
        return FaultModel.random(
            topology,
            setting.num_slots,
            outage_probability=self.outage_probability,
            mean_duration=self.mean_duration,
            seed=seed,
            announced=self.announced,
        )


@dataclass(frozen=True)
class RunTask:
    """One (run index, scheduler) cell of a comparison grid.

    ``scheduler`` labels the cell and, unless ``factory`` is given,
    names its registry factory.  ``topology`` is a family name or a
    ``(setting, seed)`` callable; ``workload_factory`` and ``faults``
    are ``(topology, setting, seed)`` callables (a :class:`FaultSpec`
    is one that pickles); ``link_schedule`` is a
    :class:`~repro.net.schedule.LinkSchedule` file and ``forecast`` the
    ``(period, horizon)`` of a provider for schedulers that take one.
    """

    setting: ExperimentSetting
    scheduler: str
    run: int
    base_seed: int = 0
    audit: bool = True
    faults: Optional[Callable] = None
    topology: Union[str, Callable] = TOPOLOGY_PAPER
    factory: Optional[SchedulerFactory] = None
    workload_factory: Optional[Callable] = None
    link_schedule: Optional[str] = None
    forecast: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if not callable(self.topology) and self.topology not in (
            TOPOLOGY_PAPER, TOPOLOGY_COMPLETE
        ):
            raise SimulationError(
                f"unknown topology family {self.topology!r} "
                f"(use {TOPOLOGY_PAPER!r} or {TOPOLOGY_COMPLETE!r})"
            )


def build_cell(task: RunTask):
    """The ``(scheduler, workload)`` of one grid cell, from its seeds.

    The one place a seed becomes a cell — every driver (figures,
    ``simulate``, benches, any ``jobs``) runs what this returns, which
    is what makes their numbers comparable run for run.
    """
    # Resolved here, not at import time, to avoid a registry import
    # cycle (registry -> core -> ... -> sim).
    from repro.registry import scheduler_factory

    setting = task.setting
    seed = task.base_seed + task.run
    if callable(task.topology):
        topology = task.topology(setting, seed)
    elif task.topology == TOPOLOGY_PAPER:
        topology = paper_topology(
            capacity=setting.capacity,
            num_datacenters=setting.num_datacenters,
            seed=seed,
        )
    else:
        topology = complete_topology(
            setting.num_datacenters, capacity=setting.capacity, seed=seed
        )
    if task.workload_factory is not None:
        workload = task.workload_factory(topology, setting, seed + 1000)
    else:
        workload = PaperWorkload(
            topology,
            max_deadline=setting.max_deadline,
            min_files=setting.min_files,
            max_files=setting.max_files,
            min_size=setting.min_size,
            max_size=setting.max_size,
            seed=seed + 1000,
            deadline_distribution=setting.deadline_distribution,
            min_deadline=setting.min_deadline,
        )
    # The charging horizon covers the simulated slots plus the longest
    # deadline, so period-straddling transfers are billed.
    factory = task.factory or scheduler_factory(task.scheduler)
    scheduler = factory(topology, setting.num_slots + setting.max_deadline)
    if task.faults is not None:
        # A fresh model per cell: execution-time reveals of surprise
        # outages never leak between competitors.
        scheduler.state.fault_model = task.faults(topology, setting, seed)
    if task.link_schedule is not None:
        scheduler.state.link_schedule = LinkSchedule.from_file(
            task.link_schedule
        )
    if task.forecast is not None and hasattr(scheduler, "attach_forecast"):
        from repro.forecast import ForecastProvider

        scheduler.attach_forecast(ForecastProvider.seasonal(*task.forecast))
    return scheduler, workload


def execute_task(task: RunTask) -> Tuple[str, int, SimulationResult]:
    """Run one grid cell from scratch (module-level: workers pickle it)."""
    scheduler, workload = build_cell(task)
    result = Simulation(scheduler, workload, task.setting.num_slots).run(
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
    schedulers: Union[Sequence[str], Dict[str, SchedulerFactory]],
    runs: int = 10,
    base_seed: int = 0,
    **cell,
) -> List[RunTask]:
    """The full grid, run-major and scheduler-minor.

    ``schedulers`` is registry names or a ``name -> factory`` dict;
    ``cell`` is what every cell shares (the other :class:`RunTask`
    fields).
    """
    if runs < 1:
        raise SimulationError(f"runs must be >= 1, got {runs}")
    if not isinstance(schedulers, dict):
        schedulers = dict.fromkeys(schedulers)
    return [
        RunTask(setting, name, run, base_seed, factory=factory, **cell)
        for run in range(runs)
        for name, factory in schedulers.items()
    ]
