"""The offline (hindsight-optimal) Postcard solver.

Postcard is an *online* algorithm: at slot ``t`` it knows nothing about
files arriving after ``t``.  The offline optimum — one LP over the
whole horizon with every file visible — lower-bounds what any online
policy can achieve, so the ratio ``online / offline`` measures the
price of not knowing the future (the empirical competitive ratio).

Tractable for small instances only: the LP couples every file with
every slot of the full horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SchedulingError
from repro.core.formulation import STORAGE_FULL, build_postcard_model
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.net.topology import Topology
from repro.traffic.spec import TransferRequest


@dataclass
class OfflineResult:
    """Hindsight-optimal schedule and its cost."""

    schedule: TransferSchedule
    cost_per_slot: float
    #: The state after committing the schedule (for billing queries).
    state: NetworkState


def solve_offline(
    topology: Topology,
    requests: List[TransferRequest],
    horizon: int,
    storage: str = STORAGE_FULL,
) -> OfflineResult:
    """Optimize all ``requests`` jointly with full future knowledge.

    Each file still moves only inside its own release-to-deadline
    window — hindsight does not relax deadlines, it only removes the
    online commitment order.
    """
    if not requests:
        raise SchedulingError("solve_offline needs at least one request")
    state = NetworkState(topology, horizon)
    built = build_postcard_model(state, list(requests), storage=storage)
    schedule, solution = built.solve()
    state.commit(schedule, list(requests))
    return OfflineResult(
        schedule=schedule,
        cost_per_slot=solution.objective,
        state=state,
    )


def empirical_competitive_ratio(
    online_cost_per_slot: float, offline: OfflineResult
) -> float:
    """``online / offline`` on one instance (>= 1 up to solver noise)."""
    if offline.cost_per_slot <= 0:
        if online_cost_per_slot <= 0:
            return 1.0
        raise SchedulingError("offline optimum is zero but online cost is not")
    return online_cost_per_slot / offline.cost_per_slot
