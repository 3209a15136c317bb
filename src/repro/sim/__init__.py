"""The time-slotted simulator driving schedulers over workloads."""

from repro.sim.engine import Simulation
from repro.sim.faults import FaultModel, Outage
from repro.sim.metrics import SimulationResult, SlotRecord
from repro.sim.parallel import FaultSpec, RunTask, build_cell, run_tasks
from repro.sim.recovery import RecoveryManager, SlotDisruption
from repro.sim.runner import ExperimentSetting, SchedulerComparison, run_comparison

__all__ = [
    "Simulation",
    "SimulationResult",
    "SlotRecord",
    "ExperimentSetting",
    "SchedulerComparison",
    "run_comparison",
    "build_cell",
    "run_tasks",
    "RunTask",
    "FaultSpec",
    "FaultModel",
    "Outage",
    "RecoveryManager",
    "SlotDisruption",
]
