"""The one reader of WAL commits without a plan: an idle slot's that moved
nothing, or an older build's (``tests/data/parent_wal/`` and ``pr25_wal/``
hold such tails).  The slot is planned again: the hybrid's ``fast`` and
``degraded`` slots take the fast lane's plan, ``lp`` ones the LP lane's
on path-pruned arcs only if the record says ``"lp_arcs": "paths"``,
tie-broken by hop-GB only if it says ``"lp_objective": "hops"``; any
other scheduler runs its own slot path."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.interfaces import Scheduler, SlotPlan
from repro.heuristic.hybrid import HybridScheduler
from repro.traffic.spec import TransferRequest


def legacy_plan(
    scheduler: Scheduler, record: Dict[str, Any]
) -> Optional[Callable[[int, List[TransferRequest]], SlotPlan]]:
    """The plan function that plans ``record``'s slot again on its lane
    (``None``: the scheduler's own slot path)."""
    if not isinstance(scheduler, HybridScheduler):
        return None

    def plan(slot: int, requests: List[TransferRequest]) -> SlotPlan:
        fast = scheduler.fast_lane.plan_slot(slot, requests)
        if record.get("lane") != "lp":
            return fast
        pruned = record.get("lp_arcs") == "paths"
        return scheduler.lp_lane.plan_slot(
            slot, requests, scheduler.arc_sets(requests, fast) if pruned else None,
            scheduler.transit_price if record.get("lp_objective") == "hops" else 0.0,
        )

    return plan
