"""Salvage-and-replan recovery from surprise link failures.

The paper's commit-once model plans on the network it can see; a
*surprise* outage (see :mod:`repro.sim.faults`) invalidates committed
transit at execution time.  This module is the machinery that turns
such an event into accounting instead of a crash:

1. **Detect**: every executed slot, committed transit entries riding a
   link-slot that is actually dead (``FaultModel.is_surprise_down``)
   are identified, and the covering outage is revealed so subsequent
   planning sees the broken circuit.
2. **Void**: the dead entries — and the disrupted file's entire
   not-yet-executed future plan, which was derived under assumptions
   that no longer hold — are refunded from the ledger and the charged
   peaks re-derived (:meth:`NetworkState.void_traffic`).
3. **Salvage**: the file's remaining supply distribution is
   reconstructed from its surviving executed entries (data parked at
   intermediate datacenters survives; data "on the wire" of the failed
   link-slot returns to its tail node) and re-admitted through the
   multi-source replan LP against its *original* deadline.  On
   infeasibility or solver failure the manager degrades to greedy
   direct routing from each supply node, and finally records an SLO
   violation (``lost_gb`` + a deadline miss) rather than raising.

Per run, ``salvaged_gb + lost_gb`` equals the total disrupted volume.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import InfeasibleError, RecoveryError, SolverError
from repro.core.replan import ActiveFile, solve_multisource_plan
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


@dataclass
class SlotDisruption:
    """What surprise failures did to one executed slot."""

    slot: int
    #: Undelivered GB of all files hit by a failure this slot.
    disrupted_gb: float = 0.0
    #: Of that, GB re-admitted and (re-)routed within the deadline.
    salvaged_gb: float = 0.0
    #: GB that no recovery strategy could deliver in time.
    lost_gb: float = 0.0
    #: Files whose SLO was violated this slot.
    deadline_misses: int = 0
    #: LP replans attempted this slot.
    replans: int = 0
    #: request ids of the disrupted files.
    files: List[int] = field(default_factory=list)

    @property
    def any(self) -> bool:
        return bool(self.files)


class RecoveryManager:
    """Execution-time failure detection and per-file salvage.

    The manager shadows the run: the engine feeds it every released
    request and every committed schedule (:meth:`observe`), and after
    each slot's commitment asks it to execute the slot against the
    ground-truth fault model (:meth:`execute_slot`).  All ledger
    surgery happens through the scheduler's own
    :class:`~repro.core.state.NetworkState`, so the post-run audit and
    billing see exactly what physically flowed.

    Schedulers that keep their own in-flight picture (the replanning
    scheduler) can expose a ``resupply(request, supplies, delivered)``
    hook; when present, the manager hands the reconstructed ground
    truth of a file with a slot left back to the scheduler instead of
    replanning itself, since the scheduler will re-derive a plan on its
    next slot anyway.
    """

    def __init__(self, scheduler, fault_model):
        self.scheduler = scheduler
        self.state = scheduler.state
        self.faults = fault_model
        self._requests: Dict[int, TransferRequest] = {}
        #: Committed transit entries per file, including recovered ones.
        self._entries: Dict[int, List[ScheduleEntry]] = defaultdict(list)
        #: Transit entries indexed by execution slot (detection index).
        self._by_slot: Dict[int, List[ScheduleEntry]] = defaultdict(list)
        #: (request_id, src, dst, slot) of voided entries.
        self._voided: Set[tuple] = set()
        #: Whether the run's schedules relay within a slot (fluid semantics).
        self._fluid = False
        # Run totals (mirrored onto SimulationResult by the engine).
        self.disrupted_gb = 0.0
        self.salvaged_gb = 0.0
        self.lost_gb = 0.0
        self.deadline_misses = 0
        self.replans = 0
        self.slo_violations: List[int] = []

    # -- shadowing the run -------------------------------------------------

    def observe(
        self, slot: int, requests: List[TransferRequest], schedule: TransferSchedule
    ) -> None:
        """Log a slot's released files and committed transit entries."""
        for request in requests:
            self._requests[request.request_id] = request
        self._fluid = self._fluid or schedule.semantics == SEMANTICS_FLUID
        self._log_entries(schedule.entries)

    def _log_entries(self, entries: List[ScheduleEntry]) -> None:
        for e in entries:
            self._entries[e.request_id].append(e)
            self._by_slot[e.slot].append(e)

    # -- the per-slot drill ------------------------------------------------

    def execute_slot(self, slot: int) -> SlotDisruption:
        """Detect, void, and salvage surprise failures hitting ``slot``."""
        report = SlotDisruption(slot=slot)
        # Ground-truth is_down, not is_surprise_down: an entry committed
        # *before* a reveal can ride a *later* slot of the same outage,
        # which is no longer "surprise" but still physically dead.
        # (Schedulers cannot commit onto visibly-down slots, so every
        # hit here was invisible at its own commit time.)
        dead = [
            e
            for e in self._by_slot.get(slot, ())
            if self._key(e) not in self._voided
            and self.faults.is_down(e.src, e.dst, e.slot)
        ]
        if not dead:
            return report

        with obs.span("sim.recovery", slot=slot, entries=len(dead)):
            for e in dead:
                self.faults.reveal(e.src, e.dst, e.slot)
            for rid in sorted({e.request_id for e in dead}):
                self._salvage_file(slot, rid, report)

        self.disrupted_gb += report.disrupted_gb
        self.salvaged_gb += report.salvaged_gb
        self.lost_gb += report.lost_gb
        self.deadline_misses += report.deadline_misses
        self.replans += report.replans
        return report

    def _key(self, e: ScheduleEntry) -> tuple:
        return (e.request_id, e.src, e.dst, e.slot)

    def _salvage_file(self, slot: int, rid: int, report: SlotDisruption) -> None:
        request = self._requests.get(rid)
        if request is None:
            raise RecoveryError(f"disrupted file {rid} was never released")

        # Void: this slot's dead arcs, plus the whole not-yet-executed
        # tail of the file's plan (it was derived pre-failure).
        # Ground-truth is_down, not is_surprise_down: the covering
        # outage was already revealed by execute_slot, which would
        # make the dead arc look healthy again here.
        now = {self._key(e): e for e in self._entries[rid] if e.slot == slot}
        dead = {key for key, e in now.items() if self.faults.is_down(e.src, e.dst, slot)}
        # A fluid relay forwards in the slot it receives: the hops after
        # a dead one carried its data, so they die with it.
        fed = self._fluid
        while fed:
            starved = {now[key].dst for key in dead - self._voided}
            fed = {key for key, e in now.items() if e.src in starved} - dead
            dead |= fed
        kept: List[ScheduleEntry] = []
        for e in self._entries[rid]:
            if self._key(e) in self._voided:
                continue
            if e.slot > slot or self._key(e) in dead:
                self.state.void_traffic(e.src, e.dst, e.slot, e.volume)
                self._voided.add(self._key(e))
            else:
                kept.append(e)

        supplies, delivered = self._reconstruct(request, kept)
        remaining = max(0.0, request.size_gb - delivered)
        report.files.append(rid)
        if remaining <= max(VOLUME_ATOL, 1e-9 * request.size_gb):
            # The voided arcs carried only redundant tail volume; the
            # delivery already on record stands.
            return
        report.disrupted_gb += remaining
        self.state.completions.pop(rid, None)

        resupply = getattr(self.scheduler, "resupply", None)
        if resupply is not None and slot < request.last_slot:
            # The scheduler re-derives its whole plan next slot; handing
            # it the ground truth *is* the replan.  A file with no slot
            # left is a miss, recorded below.
            resupply(request, supplies, delivered)
            report.salvaged_gb += remaining
            report.replans += 1
            obs.counter("recovery.replans")
            return

        if self._replan(slot, request, supplies, delivered, report):
            return
        self._greedy_direct(slot, request, supplies, delivered, report)

    def _reconstruct(self, request: TransferRequest, kept: List[ScheduleEntry]):
        """Where the file's data really sits after the void.

        Executed arcs move data tail -> head; everything else is still
        where an earlier slot left it (intermediate parking survives a
        failure elsewhere, and data "on the wire" of a voided arc never
        left its tail node).
        """
        supplies: Dict[int, float] = defaultdict(float)
        supplies[request.source] += request.size_gb
        for e in kept:
            supplies[e.src] -= e.volume
            supplies[e.dst] += e.volume
        tol = max(VOLUME_ATOL, 1e-9 * request.size_gb)
        for node, volume in supplies.items():
            if volume < -tol:
                raise RecoveryError(
                    f"file {request.request_id}: reconstructed supply at "
                    f"node {node} is negative ({volume:.6f} GB)"
                )
        delivered = supplies.pop(request.destination, 0.0)
        supplies = {n: v for n, v in supplies.items() if v > tol}
        return supplies, max(0.0, delivered)

    # -- recovery strategies, in degradation order --------------------------

    def _replan(self, slot, request, supplies, delivered, report) -> bool:
        """Multi-source LP replan against the original deadline."""
        start = slot + 1
        if start > request.last_slot or not supplies:
            return False
        file = ActiveFile(request, supplies=dict(supplies), delivered=delivered)
        report.replans += 1
        obs.counter("recovery.replans")
        try:
            built, solution = solve_multisource_plan(self.state, start, [file])
        except (InfeasibleError, SolverError):
            return False
        schedule = built.schedule(solution)
        self._commit(schedule.entries)
        self.state.storage_used += schedule.total_storage_volume()
        self._complete(request, delivered, schedule.entries)
        report.salvaged_gb += file.remaining
        return True

    def _greedy_direct(self, slot, request, supplies, delivered, report) -> None:
        """Last-resort routing: push each stranded supply straight to
        the destination over whatever residual capacity the remaining
        slots offer, deliberately ignoring cost.  Whatever does not fit
        is recorded as an SLO violation, never raised."""
        remaining = sum(supplies.values())
        entries: List[ScheduleEntry] = []
        moved = 0.0
        dest = request.destination
        for node in sorted(supplies):
            left = supplies[node]
            if not self.state.topology.has_link(node, dest):
                continue
            for n in range(slot + 1, request.last_slot + 1):
                if left <= VOLUME_ATOL:
                    break
                room = self.state.residual_capacity(node, dest, n)
                take = min(left, room)
                if take > VOLUME_ATOL:
                    entries.append(
                        ScheduleEntry(request.request_id, node, dest, n, take)
                    )
                    left -= take
                    moved += take
        self._commit(entries)
        shortfall = remaining - moved
        if shortfall <= max(VOLUME_ATOL, 1e-9 * request.size_gb):
            obs.counter("recovery.greedy_salvages")
            self._complete(request, delivered, entries)
            report.salvaged_gb += remaining
        else:
            obs.counter("recovery.slo_violations")
            report.salvaged_gb += moved
            report.lost_gb += shortfall
            report.deadline_misses += 1
            self.slo_violations.append(request.request_id)

    # -- committing recovered traffic ---------------------------------------

    def _commit(self, entries: List[ScheduleEntry]) -> None:
        """Record recovered transit in the ledger and raise the charged
        peaks, exactly as a scheduler commit would; the entries also
        join the shadow log so a *second* outage can disrupt them."""
        self.state.record_traffic(
            ((src, dst, slot), gb) for _, src, dst, slot, gb in entries
        )
        self._log_entries(entries)

    def _complete(self, request, delivered, entries) -> None:
        """Record the recovered file's new completion slot."""
        arrivals: Dict[int, float] = defaultdict(float)
        for e in entries:
            if e.dst == request.destination:
                arrivals[e.slot] += e.volume
            elif e.src == request.destination:
                arrivals[e.slot] -= e.volume
        cumulative = delivered
        tol = max(VOLUME_ATOL, 1e-9 * request.size_gb)
        for n in sorted(arrivals):
            cumulative += arrivals[n]
            if cumulative >= request.size_gb - tol:
                self.state.completions[request.request_id] = n
                return
        raise RecoveryError(
            f"file {request.request_id}: recovered plan delivers only "
            f"{cumulative:.6f} of {request.size_gb:.6f} GB"
        )
