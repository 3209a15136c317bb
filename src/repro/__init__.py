"""Postcard: minimizing costs on inter-datacenter traffic with
store-and-forward — a full reproduction of Feng, Li & Li (ICDCS 2012).

Quickstart
----------
>>> from repro import (
...     PostcardScheduler, FlowBasedScheduler, TransferRequest, fig3_topology,
... )
>>> topology = fig3_topology()
>>> scheduler = PostcardScheduler(topology, horizon=100)
>>> files = [
...     TransferRequest(2, 4, 8.0, 4, release_slot=3),
...     TransferRequest(1, 4, 10.0, 2, release_slot=3),
... ]
>>> schedule = scheduler.on_slot(3, files)
>>> round(scheduler.state.current_cost_per_slot(), 2)
32.67

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` / ``__dir__`` for a package root.

    ``exports`` maps each exported name to the module that provides it;
    that module is imported when the name is first read, and the value
    is then kept in ``namespace`` so later reads are plain lookups.  A
    process therefore imports only the subsystems it touches.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return list(exports)

    return __getattr__, __dir__


#: Exported name -> the module that provides it (imported on first use).
_EXPORTS = {
    # errors
    "ReproError": "repro.errors",
    "ModelError": "repro.errors",
    "SolverError": "repro.errors",
    "InfeasibleError": "repro.errors",
    "UnboundedError": "repro.errors",
    "TopologyError": "repro.errors",
    "ChargingError": "repro.errors",
    "WorkloadError": "repro.errors",
    "SchedulingError": "repro.errors",
    "SimulationError": "repro.errors",
    # network
    "Datacenter": "repro.net",
    "Link": "repro.net",
    "Topology": "repro.net",
    "complete_topology": "repro.net",
    "paper_topology": "repro.net",
    "fig1_topology": "repro.net",
    "fig3_topology": "repro.net",
    "two_region_topology": "repro.net",
    # charging
    "LinearCost": "repro.charging",
    "PiecewiseLinearCost": "repro.charging",
    "PercentileCharging": "repro.charging",
    "MaxCharging": "repro.charging",
    "TrafficLedger": "repro.charging",
    # traffic
    "TransferRequest": "repro.traffic",
    "expand_multicast": "repro.traffic",
    "PaperWorkload": "repro.traffic",
    "DiurnalWorkload": "repro.traffic",
    "PoissonWorkload": "repro.traffic",
    "TraceWorkload": "repro.traffic",
    # time expansion + core
    "TimeExpandedGraph": "repro.timeexp",
    "NetworkState": "repro.core",
    "Scheduler": "repro.core",
    "PostcardScheduler": "repro.core",
    "TransferSchedule": "repro.core",
    "ScheduleEntry": "repro.core",
    "build_postcard_model": "repro.core",
    # baselines
    "FlowBasedScheduler": "repro.flowbased",
    "build_flow_model": "repro.flowbased",
    "solve_two_phase": "repro.flowbased",
    "DirectScheduler": "repro.baselines",
    "FastLaneScheduler": "repro.heuristic",
    "HybridScheduler": "repro.heuristic",
    # advanced core
    "LookaheadPostcardScheduler": "repro.core",
    "solve_offline": "repro.core",
    "empirical_competitive_ratio": "repro.core",
    "TimedPath": "repro.core",
    "decompose_paths": "repro.core",
    # extensions
    "maximize_bulk_throughput": "repro.extensions",
    "maximize_transfers_under_budget": "repro.extensions",
    "PercentileAwareScheduler": "repro.extensions",
    # presets + io
    "global_cloud_topology": "repro.net.presets",
    "save_requests": "repro.traffic.io",
    "load_requests": "repro.traffic.io",
    # simulation + analysis
    "Simulation": "repro.sim",
    "SimulationResult": "repro.sim",
    "ExperimentSetting": "repro.sim",
    "SchedulerComparison": "repro.sim",
    "run_comparison": "repro.sim",
    "ConfidenceInterval": "repro.analysis",
    "mean_ci": "repro.analysis",
    "format_table": "repro.analysis",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
