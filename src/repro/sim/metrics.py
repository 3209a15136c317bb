"""Simulation outputs: per-slot records and the aggregate result."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class SlotRecord:
    """What happened during one simulated slot."""

    slot: int
    num_requests: int
    num_rejected: int
    requested_gb: float
    #: Billable volume the slot's schedule commits (over all its slots,
    #: which may extend into the future).
    scheduled_transit_gb: float
    #: GB-slots of intermediate storage the schedule uses.
    scheduled_storage_gb: float
    #: sum(a_ij * X_ij) after this slot's commitment.
    cost_per_slot_after: float
    #: Wall-clock seconds spent inside the scheduler.
    solve_seconds: float
    #: Engine overhead for this slot (metric recording, schedule
    #: volume aggregation) — everything the old single perf_counter
    #: pair silently excluded.
    overhead_seconds: float = 0.0
    #: Undelivered GB of files hit by a surprise outage this slot
    #: (0.0 everywhere when the run has no surprise faults).
    disrupted_gb: float = 0.0
    #: Of the disrupted volume, GB re-admitted within its deadline.
    salvaged_gb: float = 0.0
    #: Disrupted GB no recovery strategy could deliver in time.
    lost_gb: float = 0.0
    #: Files whose SLO was violated during this slot's recovery.
    deadline_misses: int = 0


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run."""

    scheduler_name: str
    num_slots: int
    slots: List[SlotRecord] = field(default_factory=list)
    #: Final average cost per interval under 100-th percentile billing
    #: (the paper's headline metric).
    final_cost_per_slot: float = 0.0
    total_requests: int = 0
    total_rejected: int = 0
    total_requested_gb: float = 0.0
    total_transit_gb: float = 0.0
    total_storage_gb_slots: float = 0.0
    #: request_id -> lateness in slots (0 = on time); all zeros unless a
    #: scheduler is buggy, since deadlines are hard constraints.
    lateness: Dict[int, int] = field(default_factory=dict)
    solve_seconds_total: float = 0.0
    #: Engine overhead (per-slot recording) summed over the run.
    overhead_seconds_total: float = 0.0
    #: Wall-clock seconds the post-run ledger audit took (0.0 when the
    #: run was not audited).
    audit_seconds: float = 0.0
    #: Per-charging-period bills when the run spans several periods
    #: (empty for the default single-period run).
    period_bills: List[float] = field(default_factory=list)
    #: Fraction of billable volume carried under already-paid peaks
    #: (the "time-shifting dividend"; see TrafficLedger.free_ride_fraction).
    free_ride_fraction: float = 0.0
    #: Surprise-failure accounting (all zero without surprise outages):
    #: total undelivered GB disrupted by unannounced failures, and its
    #: exhaustive split into salvaged and lost volume —
    #: ``disrupted_gb == salvaged_gb + lost_gb`` holds per run.
    disrupted_gb: float = 0.0
    salvaged_gb: float = 0.0
    lost_gb: float = 0.0
    #: Files that missed their deadline because recovery fell through
    #: to the recorded-SLO-violation tier.
    deadline_misses: int = 0
    #: Multi-source LP replans attempted by the recovery layer.
    recovery_replans: int = 0
    #: request ids whose SLO was violated (excluded from the audit's
    #: everyone-completes-or-is-rejected check).
    slo_violations: List[int] = field(default_factory=list)
    #: Hybrid-scheduler accounting (both zero for every other
    #: scheduler): slots escalated from the fast lane to the LP, and
    #: slots the fast lane handled end to end.
    escalations: int = 0
    fast_slots: int = 0
    #: :meth:`ForecastProvider.stats` snapshot when the run's scheduler
    #: had a forecast provider attached; ``None`` for reactive runs.
    forecast: Optional[Dict] = None

    # -- derived metrics -------------------------------------------------

    @property
    def acceptance_rate(self) -> float:
        if self.total_requests == 0:
            return 1.0
        return 1.0 - self.total_rejected / self.total_requests

    @property
    def relay_overhead(self) -> float:
        """Billable GB per requested GB (1.0 = everything went direct
        single-hop; higher = multi-hop relaying)."""
        if self.total_requested_gb == 0:
            return 0.0
        return self.total_transit_gb / self.total_requested_gb

    def cost_trajectory(self) -> np.ndarray:
        """cost-per-slot after each simulated slot (non-decreasing under
        100-th percentile billing)."""
        return np.asarray([r.cost_per_slot_after for r in self.slots])

    def max_lateness(self) -> int:
        return max(self.lateness.values(), default=0)

    @property
    def total_bill(self) -> float:
        """Sum of all period bills (multi-period runs only)."""
        return sum(self.period_bills)

    def summary(self) -> str:
        text = (
            f"{self.scheduler_name}: cost/slot={self.final_cost_per_slot:.2f}, "
            f"files={self.total_requests} (rejected {self.total_rejected}), "
            f"relay overhead={self.relay_overhead:.2f}x, "
            f"storage={self.total_storage_gb_slots:.0f} GB-slots, "
            f"free-ride={self.free_ride_fraction:.0%}"
        )
        if self.disrupted_gb > 0:
            text += (
                f", disrupted={self.disrupted_gb:.1f} GB "
                f"(salvaged {self.salvaged_gb:.1f}, lost {self.lost_gb:.1f}, "
                f"{self.deadline_misses} misses)"
            )
        return text
