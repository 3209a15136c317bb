"""The experiment driver regenerating the paper's figures.

Each of Figs. 4-7 is one :class:`ExperimentSetting` — a (capacity,
max-deadline) pair over the Sec. VII workload — run ``runs`` times with
different seeds for every scheduler under comparison, all schedulers
seeing identical topologies and traffic.  Results are aggregated as
mean cost per slot with 95% confidence intervals, exactly as the paper
reports them.

How a seed becomes a run lives in :mod:`repro.sim.parallel`
(``build_cell``); this module holds the settings, the aggregation and
the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Union

from repro.analysis.stats import ConfidenceInterval, mean_ci
from repro.analysis.tables import format_table
from repro.core.interfaces import Scheduler
from repro.net.topology import Topology
from repro.sim.metrics import SimulationResult

SchedulerFactory = Callable[[Topology, int], Scheduler]


@dataclass(frozen=True)
class ExperimentSetting:
    """One evaluation setting of Sec. VII.

    Defaults are the paper's parameters; benches override
    ``num_datacenters``/``num_slots``/``max_files`` to laptop scale (the
    EXPERIMENTS.md notes record both scales).
    """

    name: str
    capacity: float
    max_deadline: int
    num_datacenters: int = 20
    num_slots: int = 100
    min_files: int = 1
    max_files: int = 20
    min_size: float = 10.0
    max_size: float = 100.0
    deadline_distribution: str = "fixed"
    min_deadline: int = 1

    def describe(self) -> str:
        return (
            f"{self.name}: c={self.capacity:g} GB/slot, max T={self.max_deadline}, "
            f"{self.num_datacenters} DCs, {self.num_slots} slots"
        )


#: The paper's four settings (Figs. 4-7).
FIG4 = ExperimentSetting("fig4", capacity=100.0, max_deadline=3)
FIG5 = ExperimentSetting("fig5", capacity=100.0, max_deadline=8)
FIG6 = ExperimentSetting("fig6", capacity=30.0, max_deadline=3)
FIG7 = ExperimentSetting("fig7", capacity=30.0, max_deadline=8)


@dataclass
class SchedulerComparison:
    """Aggregated comparison of several schedulers on one setting."""

    setting: ExperimentSetting
    runs: int
    #: scheduler name -> per-run final cost per slot.
    costs: Dict[str, List[float]] = field(default_factory=dict)
    #: scheduler name -> per-run results (for deeper inspection).
    results: Dict[str, List[SimulationResult]] = field(default_factory=dict)

    def interval(self, name: str, confidence: float = 0.95) -> ConfidenceInterval:
        return mean_ci(self.costs[name], confidence)

    def ratio(self, name_a: str, name_b: str) -> float:
        """mean(cost_a) / mean(cost_b)."""
        return mean_ci(self.costs[name_a]).mean / mean_ci(self.costs[name_b]).mean

    def to_table(self) -> str:
        """Paper-style comparison table.

        Columns appear on demand: salvage accounting columns when any
        run saw surprise-outage disruption, and an ``escalated`` column
        (LP-escalated slots / fast-lane slots, summed over runs) when a
        hybrid scheduler is in the comparison.
        """
        disrupted = any(
            r.disrupted_gb > 0
            for results in self.results.values()
            for r in results
        )
        hybrid = any(
            r.escalations + r.fast_slots > 0
            for results in self.results.values()
            for r in results
        )
        rows = []
        for name in self.costs:
            ci = self.interval(name)
            rejected = sum(r.total_rejected for r in self.results[name])
            row = [name, ci.mean, ci.half_width, rejected,
                   sum(r.solve_seconds_total for r in self.results[name])]
            if disrupted:
                row.extend(
                    [
                        f"{sum(r.salvaged_gb for r in self.results[name]):.1f}",
                        f"{sum(r.lost_gb for r in self.results[name]):.1f}",
                        sum(r.deadline_misses for r in self.results[name]),
                    ]
                )
            if hybrid:
                escalated = sum(r.escalations for r in self.results[name])
                fast = sum(r.fast_slots for r in self.results[name])
                row.append(f"{escalated}/{fast}" if escalated + fast else "-")
            rows.append(row)
        headers = ["scheduler", "cost/slot", "95% CI +/-", "rejected", "solve s"]
        if disrupted:
            headers.extend(["salvaged", "lost", "misses"])
        if hybrid:
            headers.append("esc/fast")
        return format_table(headers, rows)


def run_comparison(
    setting: ExperimentSetting,
    factories: Union[Dict[str, SchedulerFactory], Sequence[str]],
    runs: int = 10,
    base_seed: int = 0,
    audit: bool = True,
    topology_factory=None,
    workload_factory=None,
    fault_factory=None,
    jobs: int = 1,
) -> SchedulerComparison:
    """Run every scheduler on ``runs`` seeded instances of a setting.

    ``factories`` is a ``name -> factory`` dict or a sequence of
    registry names.  The grid is one
    :class:`~repro.sim.parallel.RunTask` per (run, scheduler), built by
    :func:`~repro.sim.parallel.build_cell`: within one run index all
    schedulers face the *same* topology and the *same* file arrivals.

    ``topology_factory(setting, seed)`` and
    ``workload_factory(topology, setting, seed)`` override the default
    Sec. VII topology/workload, letting the same harness sweep other
    shapes (rings, geo presets, flash crowds, ...).

    ``fault_factory(topology, setting, seed)`` attaches a
    :class:`~repro.sim.faults.FaultModel` to every scheduler's state —
    one fresh instance per scheduler.  With surprise outages present,
    :meth:`SchedulerComparison.to_table` grows salvage columns.

    ``jobs > 1`` fans the grid out to worker processes.  Worker tasks
    must pickle, so every scheduler must be a registered name (resolved
    in the worker) and the only override accepted is a
    :class:`~repro.sim.parallel.FaultSpec` as ``fault_factory``.
    Results are bit-identical for any ``jobs``.
    """
    from repro.sim.parallel import (
        TOPOLOGY_PAPER,
        FaultSpec,
        comparison_tasks,
        run_tasks,
    )

    if jobs > 1:
        from repro.errors import SimulationError
        from repro.registry import scheduler_names

        if topology_factory or workload_factory or not (
            fault_factory is None or isinstance(fault_factory, FaultSpec)
        ):
            raise SimulationError(
                "jobs > 1 cannot ship factory callables to workers; "
                "run sequentially or use repro.sim.parallel directly"
            )
        unknown = sorted(set(factories) - set(scheduler_names()))
        if unknown:
            raise SimulationError(
                f"jobs > 1 resolves schedulers by registry name; "
                f"unknown: {', '.join(unknown)}"
            )
        factories = list(factories)
    if topology_factory is not None:
        # One call per run index (the grid is run-major): its
        # schedulers share the topology whatever the factory does with
        # the seed.
        topology_factory = lru_cache(maxsize=1)(topology_factory)
    tasks = comparison_tasks(
        setting,
        factories,
        runs=runs,
        base_seed=base_seed,
        audit=audit,
        topology=topology_factory or TOPOLOGY_PAPER,
        workload_factory=workload_factory,
        faults=fault_factory,
    )
    comparison = SchedulerComparison(setting=setting, runs=runs)
    for name, _run, result in run_tasks(tasks, jobs=jobs):
        comparison.costs.setdefault(name, []).append(result.final_cost_per_slot)
        comparison.results.setdefault(name, []).append(result)
    return comparison
