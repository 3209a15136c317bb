"""The simulation engine: slot loop, auditing, metric collection.

Each slot is decided by :func:`repro.core.interfaces.slot_step`, the
function the daemon's broker calls too: it rolls the charging period
over and runs the scheduler, on idle slots as well.  Around it the
engine keeps what only a simulation has: the workload it pulls from,
the :class:`~repro.sim.recovery.RecoveryManager` for surprise outages,
the per-slot metrics and the closing audit.

Timing is attributed per stage through :mod:`repro.obs` spans:
``sim.scheduler`` (the scheduler's own decision time, what
``SlotRecord.solve_seconds`` reports), ``sim.record`` (the engine's
metric bookkeeping), and ``sim.audit`` (the post-run ledger
cross-check).  The spans always measure — the numbers land in the
result even without a sink — and additionally stream to any attached
sink for ``--profile`` / ``--obs-jsonl`` runs.
"""

from __future__ import annotations

from repro import invariants
from repro.errors import SimulationError
from repro.core.interfaces import Scheduler, slot_step
from repro.obs import registry as obs
from repro.sim.metrics import SimulationResult, SlotRecord
from repro.traffic.workload import Workload


class Simulation:
    """Drive one scheduler over one workload for a span of slots.

    Per slot: pull the released files from the workload, hand them to
    the scheduler (which commits its decisions into its own
    :class:`~repro.core.state.NetworkState`), and record metrics.
    After the loop, the engine audits the scheduler's ledger — aggregate
    capacity on every used link-slot, and deadline compliance of every
    completion — so a buggy scheduler cannot silently report good
    numbers.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        workload: Workload,
        num_slots: int,
        slots_per_period: int = 0,
    ):
        """``slots_per_period > 0`` splits the run into independent
        charging periods: at every boundary the scheduler's paid peaks
        expire (see :func:`~repro.core.interfaces.slot_step`), and
        the result carries per-period bills.  The paper's setting is a
        single period (the default)."""
        if num_slots < 1:
            raise SimulationError(f"num_slots must be >= 1, got {num_slots}")
        if slots_per_period < 0:
            raise SimulationError("slots_per_period must be non-negative")
        self.scheduler = scheduler
        self.workload = workload
        self.num_slots = num_slots
        self.slots_per_period = slots_per_period

    def run(self, audit: bool = True) -> SimulationResult:
        with obs.span(
            "sim.run", scheduler=self.scheduler.name, slots=self.num_slots
        ):
            return self._run(audit)

    def _run(self, audit: bool) -> SimulationResult:
        result = SimulationResult(
            scheduler_name=self.scheduler.name, num_slots=self.num_slots
        )
        deadlines = {}

        # Surprise outages need execution-time detection: the recovery
        # manager shadows every commitment and, after each slot, voids
        # traffic that rode a dead link-slot and salvages the files.
        # Announced-only (or absent) fault models take the fast path —
        # the engine then behaves bit-identically to a fault-free run.
        fault_model = getattr(self.scheduler.state, "fault_model", None)
        recovery = None
        if fault_model is not None and getattr(fault_model, "has_surprise", False):
            from repro.sim.recovery import RecoveryManager

            recovery = RecoveryManager(self.scheduler, fault_model)

        for slot in range(self.num_slots):
            requests = self.workload.requests_at(slot)
            for request in requests:
                deadlines[request.request_id] = request.last_slot

            obs.counter("sim.requests", len(requests))
            rejected_before = len(self.scheduler.state.rejected)
            step = slot_step(
                self.scheduler, slot, requests, self.slots_per_period,
                span="sim.scheduler", scheduler=self.scheduler.name,
            )
            result.period_bills.extend(step.bills)
            schedule, elapsed = step.schedule, step.seconds
            rejected_now = len(self.scheduler.state.rejected) - rejected_before

            disruption = None
            if recovery is not None:
                recovery.observe(slot, requests, schedule)
                disruption = recovery.execute_slot(slot)

            with obs.timed_span("sim.record", slot=slot) as record_span:
                requested_gb = sum(r.size_gb for r in requests)
                transit_gb = schedule.total_transit_volume()
                storage_gb = schedule.total_storage_volume()
                cost_after = self.scheduler.state.current_cost_per_slot()
            record = SlotRecord(
                slot=slot,
                num_requests=len(requests),
                num_rejected=rejected_now,
                requested_gb=requested_gb,
                scheduled_transit_gb=transit_gb,
                scheduled_storage_gb=storage_gb,
                cost_per_slot_after=cost_after,
                solve_seconds=elapsed,
                overhead_seconds=record_span.seconds,
            )
            if disruption is not None and disruption.any:
                record.disrupted_gb = disruption.disrupted_gb
                record.salvaged_gb = disruption.salvaged_gb
                record.lost_gb = disruption.lost_gb
                record.deadline_misses = disruption.deadline_misses
            result.slots.append(record)
            result.total_requests += len(requests)
            result.total_rejected += rejected_now
            result.total_requested_gb += requested_gb
            result.total_transit_gb += transit_gb
            result.total_storage_gb_slots += storage_gb
            result.solve_seconds_total += elapsed
            result.overhead_seconds_total += record_span.seconds

        state = self.scheduler.state
        result.final_cost_per_slot = state.current_cost_per_slot()
        result.free_ride_fraction = state.ledger.free_ride_fraction()
        # Hybrid schedulers expose their lane split; every other
        # scheduler leaves both at zero (same duck-typed pattern as
        # fault_model above).
        result.escalations = getattr(self.scheduler, "escalations", 0)
        result.fast_slots = getattr(self.scheduler, "fast_slots", 0)
        forecast = getattr(self.scheduler, "forecast", None)
        if forecast is not None:
            result.forecast = forecast.stats()
        self._deadlines = deadlines
        if self.slots_per_period:
            # Close the trailing (possibly partial) period, extended to
            # cover in-flight transfers still draining.
            tail_end = max(
                state.period_start + self.slots_per_period,
                self.num_slots,
            )
            result.period_bills.append(
                state.ledger.period_cost(state.period_start, tail_end)
            )
        if recovery is not None:
            result.disrupted_gb = recovery.disrupted_gb
            result.salvaged_gb = recovery.salvaged_gb
            result.lost_gb = recovery.lost_gb
            result.deadline_misses = recovery.deadline_misses
            result.recovery_replans = recovery.replans
            result.slo_violations = sorted(recovery.slo_violations)

        for request_id, completed_at in state.completions.items():
            deadline = deadlines.get(request_id)
            if deadline is None:
                raise SimulationError(
                    f"scheduler completed unknown file {request_id}"
                )
            result.lateness[request_id] = max(0, completed_at - deadline)

        if audit:
            with obs.timed_span(
                "sim.audit", scheduler=self.scheduler.name
            ) as audit_span:
                self._audit(result)
            result.audit_seconds = audit_span.seconds
        return result

    def _audit(self, result: SimulationResult) -> None:
        """Cross-check the scheduler's ledger against the invariant kernel
        (:mod:`repro.invariants`).  Traffic voided by surprise outages has
        already been refunded, so the check sees what physically flowed."""
        state = self.scheduler.state
        # Released files that never completed are the accounting below's.
        due = {rid: self._deadlines[rid] for rid in state.completions}
        problems = invariants.cells(state) + invariants.deadlines(state.completions, due)
        if problems:
            raise SimulationError(f"audit: {invariants.summary(problems)}")
        # Every released file must be completed or rejected — except
        # files whose deadline extends past the simulated window, which
        # a replanning scheduler may legitimately still be draining,
        # and files already booked as SLO violations by the recovery
        # layer (their loss is the recorded outcome, not a bug).
        accounted = set(state.completions) | {
            r.request_id for r in state.rejected
        }
        accounted.update(result.slo_violations)
        unaccounted = [
            rid
            for rid, deadline in self._deadlines.items()
            if rid not in accounted and deadline < self.num_slots
        ]
        if unaccounted:
            raise SimulationError(
                f"audit: files neither completed nor rejected despite "
                f"in-window deadlines: {sorted(unaccounted)}"
            )
