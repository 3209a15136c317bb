"""A central registry of scheduler factories.

The CLI, the benchmark harness, and downstream experiment scripts all
need "give me scheduler X for topology T and horizon H" by name; this
module is the single place those names live.  Factories default to the
drop policy so batch experiments survive infeasible corner cases and
report rejections instead of dying.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.interfaces import Scheduler
    from repro.net.topology import Topology

SchedulerFactory = Callable[["Topology", int], "Scheduler"]


def _build(path: str, topology: "Topology", horizon: int, **kwargs) -> "Scheduler":
    """Build ``"module:Class"`` with the drop policy, importing its module
    only now: a daemon running one scheduler loads no other family."""
    module, _, name = path.partition(":")
    scheduler = getattr(importlib.import_module(module), name)
    return scheduler(topology, horizon, on_infeasible="drop", **kwargs)


_REGISTRY: Dict[str, SchedulerFactory] = {
    "postcard": lambda t, h, **kw: _build(
        "repro.core.scheduler:PostcardScheduler", t, h, **kw
    ),
    "postcard-replan": lambda t, h, **kw: _build(
        "repro.core.replan:ReplanningPostcardScheduler", t, h, **kw
    ),
    "postcard-no-storage": lambda t, h, **kw: _build(
        "repro.core.scheduler:PostcardScheduler", t, h,
        storage="destination_only", **kw
    ),
    "flow-based": lambda t, h, **kw: _build(
        "repro.flowbased.scheduler:FlowBasedScheduler", t, h, **kw
    ),
    "flow-2phase": lambda t, h, **kw: _build(
        "repro.flowbased.scheduler:FlowBasedScheduler", t, h,
        variant="two_phase", **kw
    ),
    "direct": lambda t, h: _build("repro.baselines.direct:DirectScheduler", t, h),
    "greedy": lambda t, h: _build(
        "repro.baselines.greedy:GreedyStoreAndForwardScheduler", t, h
    ),
    "q-aware": lambda t, h, **kw: _build(
        "repro.extensions.percentile:PercentileAwareScheduler", t, h,
        q=95.0, **kw
    ),
    # The fast lane: LP-free admission + ALAP placement.
    "heuristic": lambda t, h: _build(
        "repro.heuristic.fastlane:FastLaneScheduler", t, h
    ),
    # Fast lane per slot, Postcard LP on escalated (pressured) slots.
    "hybrid": lambda t, h, **kw: _build(
        "repro.heuristic.hybrid:HybridScheduler", t, h, **kw
    ),
}


def scheduler_names() -> List[str]:
    """All registered scheduler names, sorted."""
    return sorted(_REGISTRY)


def make_scheduler(
    name: str,
    topology: Topology,
    horizon: int,
    **kwargs,
) -> Scheduler:
    """Instantiate a registered scheduler by name.

    Keyword arguments are forwarded to the factory (the service daemon
    passes the hybrid's watchdog settings here); one the factory's
    scheduler does not take raises :class:`TypeError`.
    """
    return scheduler_factory(name)(topology, horizon, **kwargs)


def scheduler_factory(name: str) -> SchedulerFactory:
    """The raw factory for a registered name (for run_comparison)."""
    if name not in _REGISTRY:
        known = ", ".join(scheduler_names())
        raise ReproError(f"unknown scheduler {name!r}; available: {known}")
    return _REGISTRY[name]
