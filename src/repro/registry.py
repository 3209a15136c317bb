"""A central registry of scheduler factories.

The CLI, the benchmark harness, and downstream experiment scripts all
need "give me scheduler X for topology T and horizon H" by name; this
module is the single place those names live.  Factories default to the
drop policy so batch experiments survive infeasible corner cases and
report rejections instead of dying.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ReproError
from repro.baselines import DirectScheduler, GreedyStoreAndForwardScheduler
from repro.core import PostcardScheduler, ReplanningPostcardScheduler
from repro.core.interfaces import Scheduler
from repro.extensions import PercentileAwareScheduler
from repro.flowbased import FlowBasedScheduler
from repro.heuristic import FastLaneScheduler, HybridScheduler
from repro.net.topology import Topology

SchedulerFactory = Callable[[Topology, int], Scheduler]

_REGISTRY: Dict[str, SchedulerFactory] = {
    "postcard": lambda t, h, **kw: PostcardScheduler(
        t, h, on_infeasible="drop", **kw
    ),
    "postcard-replan": lambda t, h, **kw: ReplanningPostcardScheduler(
        t, h, on_infeasible="drop", **kw
    ),
    "postcard-no-storage": lambda t, h, **kw: PostcardScheduler(
        t, h, storage="destination_only", on_infeasible="drop", **kw
    ),
    "flow-based": lambda t, h, **kw: FlowBasedScheduler(
        t, h, on_infeasible="drop", **kw
    ),
    "flow-2phase": lambda t, h, **kw: FlowBasedScheduler(
        t, h, variant="two_phase", on_infeasible="drop", **kw
    ),
    "direct": lambda t, h: DirectScheduler(t, h, on_infeasible="drop"),
    "greedy": lambda t, h: GreedyStoreAndForwardScheduler(
        t, h, on_infeasible="drop"
    ),
    "q-aware": lambda t, h, **kw: PercentileAwareScheduler(
        t, h, q=95.0, on_infeasible="drop", **kw
    ),
    # The fast lane: LP-free admission + ALAP placement.
    "heuristic": lambda t, h: FastLaneScheduler(
        t, h, on_infeasible="drop"
    ),
    # Fast lane per slot, Postcard LP on escalated (pressured) slots.
    "hybrid": lambda t, h, **kw: HybridScheduler(
        t, h, on_infeasible="drop", **kw
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


def register_scheduler(name: str, factory: SchedulerFactory) -> None:
    """Add (or replace) a named factory — extension point for users."""
    _REGISTRY[name] = factory
