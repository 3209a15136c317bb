"""The broker core: intake -> slot batch -> slot step -> decisions.

:class:`TransferBroker` is the synchronous heart of the daemon, kept
free of sockets and event loops so tests (and the crash-resume harness)
can drive it slot by slot deterministically.  Each
:meth:`~TransferBroker.process_slot` call is one virtual slot ``t``:
drain the intake queue into the batch ``K(t)`` (empty on an idle slot),
probe the headroom, and decide it with
:func:`~repro.core.interfaces.slot_step` — the function the simulator
runs too, which rolls the charging period over and runs the configured
scheduler (hybrid by default) on the broker's single
:class:`NetworkState`.  Then read the per-request outcomes back from
the state, journal and checkpoint, and return the decisions for the
server to push to waiting clients.

Durability contract, with a ``checkpoint_dir``: admissions are written
to the WAL at ``submit`` and ride the one fsync of their slot's commit
record, which lands before any decision is released (docs/ROBUSTNESS.md,
"What is durable when", is the rule); every ``checkpoint_every`` slots
the store compacts the log into a snapshot.  Recovery replays the log
over the newest valid snapshot, commits each slot's *recorded plan*, and
refuses to serve unless the invariant kernel
(:func:`repro.invariants.verify_recovery`) passes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.interfaces import SlotPlan, SlotStep, slot_step
from repro.errors import ServiceError, WalError
from repro.invariants import verify_recovery
from repro.obs import registry as obs
from repro.obs.slo import SloMonitor
from repro.registry import make_scheduler
from repro.service import chaos
from repro.service.config import ServiceConfig
from repro.service.intake import IntakeQueue, PendingTransfer
from repro.service.store import SnapshotStore
from repro.service.wal import REC_ADMIT, REC_COMMIT, plan_record, recorded_plan
from repro.traffic.spec import TransferRequest

DECISION_ADMITTED = "admitted"
DECISION_REJECTED = "rejected"

#: Cap on trace ids attached as ambient context to a slot's scheduler
#: events.  The ambient attrs ride on *every* nested event (LP sizes,
#: solver counters, ...), so an unbounded list makes a large batch's
#: event stream quadratic-ish in batch size; past the cap, the slot's
#: request legs (``service.lane``, ``service.charge_delta``) still list
#: every request's id and join the scheduler legs via the ``slot`` attr.
TRACE_IDS_ATTR_CAP = 32

#: One resolved submission: the pending entry and its decision record.
Resolution = Tuple[PendingTransfer, Dict[str, Any]]


class SlotFailed(ServiceError):
    """The scheduler raised (``__cause__``) and the slot is over: clock
    advanced, ``batch`` off the queue and journaled as failed, no id in
    it decided — the caller owes each waiter an ``internal`` answer."""

    def __init__(self, slot: int, batch: List[PendingTransfer], cause: Exception):
        super().__init__(f"slot {slot} failed: {cause}")
        self.batch = batch


class TransferBroker:
    """Request intake, slot batching, and decision bookkeeping.

    Parameters
    ----------
    config:
        The daemon's :class:`ServiceConfig`.  When it names a
        ``checkpoint_dir`` holding a snapshot, the broker *resumes*:
        billing state, queued submissions, the virtual clock, and the
        decision log all pick up where the dead process stopped.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.topology = config.topology()
        self.queue = IntakeQueue(
            config.max_queue, config.tick_seconds, config.max_batch
        )
        self.store = (
            SnapshotStore(config.checkpoint_dir, config.snapshot_retain, config.wal_fsync)
            if config.checkpoint_dir else None
        )
        scheduler_kwargs: Dict[str, Any] = {}
        if config.scheduler == "hybrid":
            # The chaos tap and the watchdog live on the hybrid lane
            # boundary; other schedulers have no escalation to guard.
            scheduler_kwargs.update(
                watchdog_timeout_s=config.watchdog_timeout_s,
                escalate_hook=lambda: chaos.crashpoint("lp.escalate"),
            )
        self.scheduler = make_scheduler(
            config.scheduler, self.topology, config.horizon, **scheduler_kwargs
        )
        #: Availability windows the broker schedules under (config-
        #: derived, like the topology; snapshots never carry it).
        self.link_schedule = config.link_schedule()
        self.scheduler.state.link_schedule = self.link_schedule
        if config.forecast:
            # Config-not-state, like the link schedule: the provider is
            # attached before any recovery below, so WAL replay retrains
            # its predictors from the replayed slots deterministically.
            from repro.forecast import ForecastProvider

            self.scheduler.attach_forecast(
                ForecastProvider.seasonal(
                    config.forecast_period, config.forecast_horizon
                )
            )
        #: client id -> decision record (the idempotency/status log).
        self.decisions: Dict[str, Dict[str, Any]] = {}
        #: Decided or replayed since the last checkpoint: the next one's journal frames.
        self._unjournaled: Dict[str, Dict[str, Any]] = {}
        #: Accepted since the last slot while a sink listened: the next
        #: slot's ``service.intake`` leg.
        self._arrivals: List[PendingTransfer] = []
        #: Next virtual slot to process.
        self.next_slot = 0
        self.draining = False
        self.resumed = False
        self.counts = {"submitted": 0, "admitted": 0, "rejected": 0,
                       "backpressured": 0, "slots": 0, "batches": 0}
        #: Rolling-window SLO evaluation over processed slots.
        self.slo = SloMonitor(config.slo_thresholds())
        #: Unix timestamp virtual slot 0 maps to (see ServiceConfig
        #: wall-clock fields); checkpointed so resumes keep alignment.
        self.wall_epoch = config.wall_epoch or time.time()
        #: What :meth:`SnapshotStore.recover` found on disk (its ``info``).
        self.recovery_info: Dict[str, Any] = {}
        #: The invariant report of the last verified resume.
        self.verifier_report: Optional[Dict[str, Any]] = None

        if self.store:
            snapshot, records, self.recovery_info = self.store.recover(
                self.topology
            )
            if snapshot is not None:
                self._adopt_snapshot(snapshot)
            if records:
                self._replay_wal(records)
            self.resumed = snapshot is not None or bool(records)
            if self.resumed:
                # A killed process's last records may still sit unsynced in
                # the page cache; replay just answered from them, so they
                # are made durable before any client can read them.
                self.store.sync_wal()
                # Serving from inconsistent books is worse than not
                # serving: strict mode raises before any client connects.
                self.verifier_report = verify_recovery(self, strict=True)
                if self.recovery_info.get("replanned"):
                    self.checkpoint()  # so plan-less records are read once
            else:
                self.store.genesis(self.state, {"wall_epoch": self.wall_epoch})

    def _adopt_snapshot(self, snapshot) -> None:
        """Restore state, queue, clock, and books from one snapshot."""
        self.scheduler.adopt_state(snapshot.state)
        self.scheduler.adopt_meta(snapshot.meta)
        # Snapshots don't serialize the link schedule (it is config, not
        # state) — re-attach it to the restored state object, which is a
        # different object from the one wired up at construction.
        self.scheduler.state.link_schedule = self.link_schedule
        self.queue.requeue_front(
            [PendingTransfer.from_payload(p) for p in snapshot.pending]
        )
        self.next_slot = snapshot.next_slot
        self.decisions = dict(snapshot.meta.get("decisions", {}))
        if "decisions_mark" not in snapshot.meta:
            # Versions 1-2 carried the log inline: the next checkpoint journals it.
            self._unjournaled.update(self.decisions)
        restored = snapshot.meta.get("counts", {})
        for key in self.counts:
            self.counts[key] = int(restored.get(key, 0))
        self.wall_epoch = float(
            snapshot.meta.get("wall_epoch", self.wall_epoch)
        )

    def _replay_wal(self, records: List[Dict[str, Any]]) -> None:
        """Re-apply journaled admissions and slot commits in order (see
        :meth:`_replay_commit`).  The rebuilt ledger matches the pre-crash
        one cell for cell, and the recovery verifier checks."""
        with obs.span("service.wal.replay", records=len(records)):
            for record in records:
                kind = record.get("type")
                if kind == REC_ADMIT:
                    entry = PendingTransfer.from_payload(record["entry"])
                    if (
                        entry.client_id in self.decisions
                        or self.queue.contains(entry.client_id)
                    ):
                        continue
                    self.queue.offer(entry)
                    self.counts["submitted"] = max(
                        self.counts["submitted"], int(record.get("submitted", 0))
                    )
                elif kind == REC_COMMIT:
                    self._replay_commit(record)
                else:
                    raise WalError(f"unknown WAL record type {kind!r}")

    def _replay_commit(self, record: Dict[str, Any]) -> None:
        """Commit the slot's recorded plan through the slot step and derive
        its decisions as the live slot did; an older build's keep what it acked."""
        slot = int(record["slot"])
        try:
            batch = self.queue.take_ids(list(record.get("batch", [])))
        except KeyError as exc:
            raise WalError(str(exc)) from exc
        requests = [self._request(pending, slot) for pending in batch]
        lane = record.get("lane", "fast")
        if lane == "failed":
            def plan_slot(slot, requests):
                raise SlotFailed(slot, batch, WalError("journaled as failed"))
        elif "plan" in record:
            def plan_slot(slot, requests):
                return recorded_plan(record["plan"], requests)
        else:
            from repro.service.legacy import legacy_plan

            plan_slot = legacy_plan(self.scheduler, record)
            info = self.recovery_info
            info["replanned"] = info.get("replanned", 0) + len(batch)
        try:
            step = self._step(slot, requests, plan_slot=plan_slot,
                              probe=lambda: self._probe(requests, slot))
        except SlotFailed:
            decided = {}
        else:
            plan, self.scheduler.last_plan = self.scheduler.last_plan, None
            decided = {pending.client_id: decision for pending, decision
                       in self._decide(slot, batch, requests, lane, step.probed, plan)}
            # An older build's record keeps what it acked, bar the timings.
            decided.update((cid, {k: v for k, v in acked.items()
                                  if k not in ("wait_s", "decision_s")})
                           for cid, acked in record.get("decisions", {}).items())
        self.decisions.update(decided)
        self._unjournaled.update(decided)
        for key, value in record.get("counts", {}).items():
            if key in self.counts:
                self.counts[key] = int(value)
        self.next_slot = slot + 1

    @property
    def state(self):
        """The single NetworkState all slots commit into."""
        return self.scheduler.state

    def _step(self, slot: int, requests: List[TransferRequest], **kwargs) -> SlotStep:
        """The slot step (:func:`~repro.core.interfaces.slot_step`) on the
        broker's books, live or replayed.  The samples, completions and
        rejections of every period it closed are then dropped — a failed
        slot's too, so replay prunes where the live run did."""
        state = self.state
        period_start = state.period_start
        try:
            return slot_step(
                self.scheduler, slot, requests, self.config.period_slots, **kwargs
            )
        finally:
            start = state.period_start
            if start != period_start:
                state.ledger.prune_before(start)
                state.completions = {
                    rid: done for rid, done in state.completions.items() if done >= start
                }
                state.rejected = [r for r in state.rejected if r.last_slot >= start]

    @staticmethod
    def _request(pending: PendingTransfer, slot: int) -> TransferRequest:
        return TransferRequest(pending.source, pending.destination, pending.size_gb,
                               pending.deadline_slots, release_slot=slot)

    # -- intake ------------------------------------------------------------

    def submit(
        self, fields: Dict[str, Any], waiter: Optional[Any] = None
    ) -> Tuple[str, Any]:
        """Accept one validated submission.

        Returns ``("decided", record)`` for an id already decided (the
        idempotent-retry path), ``("attached", PendingTransfer)`` for an
        id still queued whose waiter slot is free — the caller's waiter
        is parked on the existing entry, which is what lets a fabric
        router reconnect after a crash and hear the original decision
        exactly once — or ``("pending", PendingTransfer)`` once queued.
        Raises :class:`BackpressureError` when the intake queue is
        saturated and :class:`ServiceError` when the daemon is draining,
        a live waiter already holds the id, or the transfer's deadline
        would cross the ledger horizon (single-period mode only; with
        ``config.period_slots`` the broker rolls the charging period
        over instead).
        """
        client_id = fields["id"]
        known = self.decisions.get(client_id)
        if known is not None:
            return "decided", known
        queued = self.queue.find(client_id)
        if queued is not None:
            if queued.waiter is not None and not queued.waiter.done():
                raise ServiceError(
                    f"submission {client_id!r} is already pending"
                )
            queued.waiter = waiter
            obs.counter("service.attached")
            return "attached", queued
        if self.draining:
            raise ServiceError("service is draining; not accepting submissions")
        if (
            not self.config.period_slots
            and self.next_slot + fields["deadline_slots"] + 1
            > self.config.horizon
        ):
            raise ServiceError(
                f"deadline would cross the service horizon "
                f"({self.config.horizon} slots); run with period_slots to "
                "roll the charging period over instead"
            )
        pending = PendingTransfer(
            client_id=client_id,
            source=fields["source"],
            destination=fields["destination"],
            size_gb=fields["size_gb"],
            deadline_slots=fields["deadline_slots"],
            waiter=waiter,
        )
        try:
            self.queue.offer(pending)
        except Exception:
            self.counts["backpressured"] += 1
            raise
        self.counts["submitted"] += 1
        # The submitted tally is monotone and checkpointed, so ids stay
        # unique across crash-resume cycles.
        pending.trace_id = f"t-{self.counts['submitted']:08d}"
        if self.store:
            # Written, not synced: nobody hears about this id before its
            # slot's commit is fsync'd (docs/ROBUSTNESS.md, "What is
            # durable when").  A failed write (disk full) rolls the
            # submission back — refusing it is honest.
            try:
                self.store.append_wal({
                    "type": REC_ADMIT,
                    "entry": pending.to_payload(),
                    "submitted": self.counts["submitted"],
                }, sync=False)
            except (OSError, WalError) as exc:
                self.queue.remove(client_id)
                self.counts["submitted"] -= 1
                obs.counter("service.wal.append_failed")
                raise ServiceError(
                    f"cannot journal submission {client_id!r}: {exc}"
                ) from exc
        if obs.get_registry().enabled:
            self._arrivals.append(pending)
        return "pending", pending

    def status(self, client_id: str) -> Dict[str, Any]:
        """The lifecycle state of one submission id."""
        known = self.decisions.get(client_id)
        if known is not None:
            return {"state": known["decision"], "decision": known}
        if self.queue.contains(client_id):
            if self.store:
                self.store.sync_wal()  # sync-before-reveal: "pending" is a promise
            return {"state": "pending"}
        return {"state": "unknown"}

    # -- the slot loop -----------------------------------------------------

    def process_slot(self) -> List[Resolution]:
        """Run one virtual slot; returns the decisions it produced.

        An empty queue still advances the clock (a slot with no
        arrivals is a real, billable-by-silence interval) and still runs
        the slot step, so the forecaster observes it; it skips the
        checkpoint cadence check, as nothing was decided.  Raises
        :class:`SlotFailed` when the scheduler raises, and the log's error
        when the slot's commit cannot be made durable (nothing is released).
        """
        slot = self.next_slot
        telemetry = obs.get_registry().enabled
        if telemetry:
            # Before the drain: the depth's max is the interval's peak.
            obs.gauge("service.queue_depth", self.queue.depth)
            if self._arrivals:
                self._emit_arrivals(slot, self._arrivals)
        self._arrivals.clear()
        batch = self.queue.drain()
        requests = [self._request(pending, slot) for pending in batch]
        if batch:
            obs.gauge("service.batch_size", len(batch))
        trace_ids = [p.trace_id for p in batch[:TRACE_IDS_ATTR_CAP]]
        try:
            with obs.trace(slot=slot, trace_ids=trace_ids):
                step = self._step(
                    slot, requests, probe=lambda: self._probe(requests, slot),
                    span="service.slot" if batch else None, batch=len(batch),
                )
        except Exception as exc:
            # Journaled as what it was: admit records left replayable would
            # be decided and billed after a restart, for clients told "failed".
            self.next_slot = slot + 1
            self.counts["slots"] += 1
            obs.counter("service.slot_failed", slot=slot, error=type(exc).__name__)
            self._append_commit(slot, batch, lane="failed")
            raise SlotFailed(slot, batch, exc) from exc
        self.next_slot = slot + 1
        self.counts["slots"] += 1
        # Taken, so it goes with this slot's other garbage.
        plan, self.scheduler.last_plan = self.scheduler.last_plan, None
        if not batch:
            # Even an empty slot advances the billable clock; a resume
            # must not rewind it.  One tiny record.
            self._append_commit(slot, [])
            return []

        lane, decision_s = self.scheduler.last_lane, step.seconds
        now = time.perf_counter()
        resolutions = self._decide(slot, batch, requests, lane, step.probed, plan)
        admitted_count = sum(r["decision"] == DECISION_ADMITTED for _, r in resolutions)
        self.counts["admitted"] += admitted_count
        self.counts["rejected"] += len(batch) - admitted_count
        if telemetry:
            self._emit_decisions(slot, lane, resolutions, admitted_count)
        obs.gauge("service.admission_latency_s", decision_s)
        obs.gauge("service.decision_s", decision_s)

        self.counts["batches"] += 1
        self.slo.record_slot(
            admitted_count, len(batch) - admitted_count, decision_s,
            self.queue.depth, degraded=int(lane == "degraded"),
        )
        if self.store:  # no plan: the replanner's slot, which replays by planning
            self._append_commit(slot, batch, lane=lane, **(
                {"plan": plan_record(plan, requests)} if self.scheduler.plan_replays
                else {}))
        decided = {pending.client_id: record for pending, record in resolutions}
        # Only now may a status op reveal them: their commit is durable.
        self.decisions.update(decided)
        if self.store:
            self._unjournaled.update(decided)
            if self.draining or self.next_slot % self.config.checkpoint_every == 0:
                self.checkpoint()
        chaos.crashpoint("commit.pre_ack")
        self.slo.evaluate(emit=True)
        # The answers add what was measured, which no log keeps.
        return [(pending, dict(record, wait_s=round(now - pending.enqueued_at, 6),
                               decision_s=round(decision_s, 6)))
                for pending, record in resolutions]

    def _decide(
        self, slot: int, batch: List[PendingTransfer],
        requests: List[TransferRequest], lane: str, probed: Any, plan: Optional[SlotPlan],
    ) -> List[Resolution]:
        """A committed batch's decision records, read from its plan and the
        books by the live slot and its replay alike, so both write the same
        record.  A file is admitted when the plan accepts it; its
        ``completion_slot`` is ``None`` until the books show it delivered.
        ``probed`` is what :meth:`_probe` saw; ``cost_delta`` is what the
        batch added to the per-interval bill (priced jointly, not split)."""
        cost_before, headroom = probed
        cost_delta = round(self.state.current_cost_per_slot() - cost_before, 9)
        wall_ts = round(self.wall_time(slot), 3)
        completions = self.state.completions
        accepted = {request.request_id for request in plan.accepted} if batch else ()
        resolutions: List[Resolution] = []
        for pending, request in zip(batch, requests):
            resolutions.append((pending, {
                "id": pending.client_id,
                "decision": DECISION_ADMITTED if request.request_id in accepted
                else DECISION_REJECTED,
                "slot": slot,
                "release_slot": slot,
                "deadline_slot": request.last_slot,
                "completion_slot": completions.get(request.request_id),
                "lane": lane,
                "trace": pending.trace_id,
                "cost_delta": cost_delta,
                "headroom_gb": headroom[request.request_id],
                "wall_ts": wall_ts,
            }))
        return resolutions

    @staticmethod
    def _emit_arrivals(slot: int, arrivals: List[PendingTransfer]) -> None:
        """The ``service.intake`` leg of every submission accepted since
        the last slot, as one event: per-request values in parallel lists
        (:func:`repro.obs.request_legs` reads one request's back)."""
        obs.counter("service.submitted", len(arrivals))
        obs.counter(
            "service.intake", len(arrivals),
            trace=[p.trace_id for p in arrivals],
            id=[p.client_id for p in arrivals],
            source=[p.source for p in arrivals],
            destination=[p.destination for p in arrivals],
            size_gb=[p.size_gb for p in arrivals],
            deadline_slots=[p.deadline_slots for p in arrivals],
            slot=slot,
        )

    @staticmethod
    def _emit_decisions(
        slot: int, lane: str, resolutions: List[Resolution], admitted: int,
    ) -> None:
        """A decided batch's tallies and its ``service.lane`` and
        ``service.charge_delta`` legs, one event each, in batch order."""
        rejected = len(resolutions) - admitted
        cost_delta = resolutions[0][1]["cost_delta"]
        if admitted:
            obs.counter("service.admitted", admitted, lane=lane)
        if rejected:
            obs.counter("service.rejected", rejected, lane=lane)
        traces = [record["trace"] for _, record in resolutions]
        ids = [record["id"] for _, record in resolutions]
        obs.counter("service.lane", len(resolutions),
                    trace=traces, id=ids, lane=lane, slot=slot)
        obs.gauge(
            "service.charge_delta", cost_delta,
            trace=traces, id=ids, lane=lane, slot=slot, batch=len(resolutions),
            headroom_gb=[record["headroom_gb"] for _, record in resolutions],
        )

    def _append_commit(self, slot: int, batch: List[PendingTransfer], **fields) -> None:
        """Commit-before-ack: the slot's record — and every admit written
        before it — is on disk before a waiter sees a decision."""
        if self.store:
            self.store.append_wal({
                "type": REC_COMMIT, "slot": slot,
                "batch": [pending.client_id for pending in batch],
                "counts": dict(self.counts), **fields,
            })

    def _probe(self, requests: List[TransferRequest], slot: int):
        """The books a batch is decided against: the charged cost per slot,
        and per request the paid watermark headroom on its direct link —
        how much it could have sent at the release slot without raising
        the bill."""
        return self.state.current_cost_per_slot(), {
            request.request_id: self._admission_headroom(
                request.source, request.destination, slot
            )
            for request in requests
        }

    def _admission_headroom(self, source: int, destination: int, slot: int) -> float:
        """Paid watermark headroom toward ``destination`` at ``slot``.

        The direct link's headroom when one exists; otherwise the best
        over the source's outgoing links (a relay would have to start
        on one of them).
        """
        if self.topology.has_link(source, destination):
            return round(self.state.paid_headroom(source, destination, slot), 6)
        best = 0.0
        for link in self.topology.links:
            if link.src == source:
                best = max(
                    best, self.state.paid_headroom(link.src, link.dst, slot)
                )
        return round(best, 6)

    def drain_remaining(self) -> List[Resolution]:
        """Refuse new intake, flush the queue slot by slot, checkpoint.

        Returns every decision made while draining.  Always writes a
        final snapshot (when a store is configured), even if the queue
        was already empty — the shutdown must be resumable.
        """
        self.draining = True
        resolved: List[Resolution] = []
        while self.queue.depth > 0:
            resolved.extend(self.process_slot())
        if self.store:
            self.checkpoint()
        return resolved

    # -- persistence -------------------------------------------------------

    def checkpoint(self) -> None:
        """Journal the new decisions, snapshot state + queue + clock (atomic)."""
        if self.store is None:
            raise ServiceError("no checkpoint directory configured")
        started = time.perf_counter()
        self.store.save(
            self.state,
            self.queue.snapshot_payloads(),
            self.next_slot,
            meta={"counts": self.counts, "wall_epoch": self.wall_epoch,
                  **self.scheduler.checkpoint_meta()},
            decisions=self._unjournaled,
        )
        self._unjournaled = {}
        self.slo.record_checkpoint(time.perf_counter() - started)

    # -- reporting ---------------------------------------------------------

    def wall_time(self, slot: float) -> float:
        """Unix timestamp virtual ``slot`` maps to (billing alignment)."""
        return self.config.wall_time(slot, self.wall_epoch)

    def stamped_usage(self, top: int = 0) -> List[Dict[str, Any]]:
        """Per-link ledger samples of the open period, wall-clock stamped.

        One entry per used link, busiest first, each with its charged
        watermark and the wall-stamped per-slot samples — the export a
        billing reconciliation matches against 5-minute ISP invoice
        intervals.  ``top`` limits to the N busiest links (0 = all).
        """
        entries = []
        for src, dst in self.state.ledger.used_links():
            samples = self.state.ledger.stamped_samples(
                src, dst, self.wall_time
            )
            entries.append({
                "link": [src, dst],
                "charged_gb": round(self.state.charged_volume(src, dst), 6),
                "total_gb": round(sum(s["gb"] for s in samples), 6),
                "samples": samples,
            })
        entries.sort(key=lambda e: e["total_gb"], reverse=True)
        return entries[:top] if top else entries

    def telemetry(self, metrics: Optional[Any] = None) -> Dict[str, Any]:
        """The ``metrics`` protocol op's body (JSON-safe).

        ``metrics`` is the daemon's attached
        :class:`~repro.obs.metrics.MetricsSnapshot` (None when
        telemetry is disabled — the broker-level sections still
        answer).
        """
        return {
            "stats": self.stats(),
            "slo": self.slo.evaluate(emit=False),
            "snapshot": metrics.snapshot() if metrics is not None else {},
            "wall": {
                "epoch": round(self.wall_epoch, 3),
                "slot_wall_seconds": self.config.slot_wall_seconds,
                "next_slot": self.next_slot,
                "next_slot_wall_ts": round(self.wall_time(self.next_slot), 3),
            },
            "recovery": {
                "resumed": self.resumed,
                "info": dict(self.recovery_info),
                "verifier": self.verifier_report,
            },
        }

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` protocol response body."""
        return {
            "endpoint": self.config.endpoint,
            "scheduler": self.config.scheduler,
            "datacenters": self.config.datacenters,
            "tick_seconds": self.config.tick_seconds,
            "next_slot": self.next_slot,
            "queue_depth": self.queue.depth,
            "max_queue": self.config.max_queue,
            "draining": self.draining,
            "resumed": self.resumed,
            "cost_per_slot": round(self.state.current_cost_per_slot(), 6),
            "escalations": getattr(self.scheduler, "escalations", 0),
            "fast_slots": getattr(self.scheduler, "fast_slots", 0),
            "degraded": getattr(self.scheduler, "degraded", 0),
            "lp_skipped": getattr(self.scheduler, "lp_skipped", 0),
            "lp_widened": getattr(self.scheduler, "lp_widened", 0),
            "windowed_links": (
                len(self.link_schedule) if self.link_schedule else 0
            ),
            "link_windows": (
                self.link_schedule.num_windows if self.link_schedule else 0
            ),
            "forecast": (
                self.scheduler.forecast.stats()
                if getattr(self.scheduler, "forecast", None) is not None
                else None
            ),
            "period_slots": self.config.period_slots,
            "period_start": self.state.period_start,
            "periods_banked": len(self.state.banked_period_bills),
            "last_period_bill": round(
                self.state.banked_period_bills[-1], 6
            ) if self.state.banked_period_bills else 0.0,
            **(
                self.store.stats()
                if self.store
                else {"checkpoints": 0, "generation": 0, "wal_records": 0, "wal_bytes": 0,
                      "wal_syncs": 0, "journal_bytes": 0, "snapshot_bytes": 0}
            ),
            **self.counts,
        }
