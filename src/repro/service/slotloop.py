"""The broker core: intake -> slot batch -> scheduler -> decisions.

:class:`TransferBroker` is the synchronous heart of the daemon, kept
free of sockets and event loops so tests (and the crash-resume harness)
can drive it slot by slot deterministically.  Each
:meth:`~TransferBroker.process_slot` call is one virtual slot ``t``:
drain the intake queue into the batch ``K(t)``, hand it to the
configured scheduler (hybrid by default — fast lane with LP
escalation) over the broker's single :class:`NetworkState`, read the
per-request outcomes back from the state's completion/rejection
records, checkpoint if due, and return the decisions for the server to
push to waiting clients.

Durability contract: the checkpoint (the new decisions appended to the
store's decision journal, then a snapshot of state + still-queued
submissions) is written *before* decisions are handed back, so any
response a client has seen from a checkpointed slot survives a crash.
Slots after the last checkpoint roll back atomically with their ledger
commitments — clients that resubmit get a fresh, consistent decision
(see docs/SERVICE.md).

With ``config.wal=True`` the contract tightens to per-slot: admissions
are written to the WAL at ``submit`` and ride the one fsync of their
slot's commit record, which lands before any decision is released
(docs/ROBUSTNESS.md, "What is durable when", is the rule).  Recovery
replays the log over the newest valid snapshot, re-runs the recorded
slots on their *recorded lanes*, and refuses to serve unless the
invariant kernel (:func:`repro.invariants.verify_recovery`) passes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError, WalError
from repro.invariants import verify_recovery
from repro.obs import registry as obs
from repro.obs.slo import SloMonitor
from repro.registry import make_scheduler
from repro.service import chaos
from repro.service.config import ServiceConfig
from repro.service.intake import IntakeQueue, PendingTransfer
from repro.service.store import SnapshotStore
from repro.service.wal import REC_ADMIT, REC_COMMIT
from repro.traffic.spec import TransferRequest

DECISION_ADMITTED = "admitted"
DECISION_REJECTED = "rejected"

#: Cap on trace ids attached as ambient context to a slot's scheduler
#: events.  The ambient attrs ride on *every* nested event (LP sizes,
#: solver counters, ...), so an unbounded list makes a large batch's
#: event stream quadratic-ish in batch size; past the cap, per-request
#: events (``service.lane``, ``service.charge_delta``) still carry each
#: request's own id and join the scheduler legs via the ``slot`` attr.
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
        if config.wal and not config.checkpoint_dir:
            raise ServiceError("wal=True requires a checkpoint_dir")
        self.store = (
            SnapshotStore(
                config.checkpoint_dir,
                wal=config.wal,
                retain=config.snapshot_retain,
                fsync=config.wal_fsync,
            )
            if config.checkpoint_dir
            else None
        )
        scheduler_kwargs: Dict[str, Any] = {}
        if config.scheduler == "hybrid":
            # The chaos tap and the watchdog live on the hybrid lane
            # boundary; other schedulers have no escalation to guard.
            scheduler_kwargs.update(
                watchdog_timeout_s=config.watchdog_timeout_s,
                watchdog_backoff_slots=config.watchdog_backoff_slots,
                watchdog_backoff_max=config.watchdog_backoff_max,
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
        #: Next virtual slot to process.
        self.next_slot = 0
        self.draining = False
        self.resumed = False
        self.counts = {"submitted": 0, "admitted": 0, "rejected": 0,
                       "backpressured": 0, "slots": 0, "batches": 0}
        #: Rolling-window SLO evaluation over processed slots.
        self.slo = SloMonitor(config.slo_thresholds(), window=config.slo_window)
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

    def _adopt_snapshot(self, snapshot) -> None:
        """Restore state, queue, clock, and books from one snapshot."""
        self.scheduler.adopt_state(snapshot.state)
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
        """Re-apply journaled admissions and slot commits in order.

        Admissions re-enter the intake queue; commits re-run their
        recorded batch through the scheduler on the recorded *lane*
        (see :meth:`~repro.heuristic.hybrid.HybridScheduler.replay_slot`
        — a degraded slot must not replay through the LP) and then
        restore the recorded decisions and tallies verbatim.  The
        scheduler is deterministic, so the rebuilt ledger matches the
        pre-crash one cell for cell — the recovery verifier checks.
        """
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
        slot = int(record["slot"])
        # Period boundaries are a pure function of the slot index, so
        # replay re-crosses them exactly where the live run did — empty
        # commits included; skipping one would leave the rebuilt
        # watermarks a period behind the pre-crash books.
        self._maybe_rollover(slot)
        batch_ids = list(record.get("batch", []))
        lane = record.get("lane", "fast")
        if batch_ids:
            try:
                batch = self.queue.take_ids(batch_ids)
            except KeyError as exc:
                raise WalError(str(exc)) from exc
        if batch_ids and lane != "failed":  # decided nothing: no scheduler run
            requests = [
                TransferRequest(
                    pending.source,
                    pending.destination,
                    pending.size_gb,
                    pending.deadline_slots,
                    release_slot=slot,
                )
                for pending in batch
            ]
            if hasattr(self.scheduler, "replay_slot"):
                self.scheduler.replay_slot(slot, requests, lane, record)
            else:
                self.scheduler.on_slot(slot, requests)
        self.decisions.update(record.get("decisions", {}))
        self._unjournaled.update(record.get("decisions", {}))
        for key, value in record.get("counts", {}).items():
            if key in self.counts:
                self.counts[key] = int(value)
        self.next_slot = slot + 1

    @property
    def state(self):
        """The single NetworkState all slots commit into."""
        return self.scheduler.state

    # -- billing rollover --------------------------------------------------

    def _maybe_rollover(self, slot: int) -> None:
        """Cycle the charging period before processing ``slot``.

        With ``config.period_slots = P`` the boundaries sit at every
        multiple of P: once ``slot`` reaches the end of the current
        period, the closing period's bill is banked
        (:meth:`NetworkState.start_new_period`), the paid watermarks
        re-seed to the in-flight volume already committed past the
        boundary, and both scheduler lanes re-adopt the state so the
        fast lane's tracker drops the expired headroom.  Deterministic
        in the slot index — live runs and WAL replay cross boundaries
        identically.
        """
        period = self.config.period_slots
        if not period:
            return
        while slot >= self.state.period_start + period:
            boundary = self.state.period_start + period
            bill = self.state.start_new_period(boundary)
            # Paid headroom the fast lane cached is no longer paid for;
            # re-adopting rebuilds its tracker from the rolled state.
            self.scheduler.adopt_state(self.state)
            if self.config.period_prune:
                self.state.ledger.prune_before(boundary)
            obs.counter("service.period_rollover")
            obs.gauge(
                "service.period_bill", round(bill, 6),
                boundary=boundary, periods=len(self.state.banked_period_bills),
            )

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
        if self.store and self.store.wal_enabled:
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
        obs.counter("service.submitted")
        obs.counter(
            "service.intake",
            trace=pending.trace_id,
            id=client_id,
            source=pending.source,
            destination=pending.destination,
            size_gb=pending.size_gb,
            deadline_slots=pending.deadline_slots,
            slot=self.next_slot,
        )
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
        arrivals is a real, billable-by-silence interval), but skips
        the scheduler and the checkpoint cadence check when nothing
        changed.  Raises :class:`SlotFailed` when the scheduler raises.
        """
        slot = self.next_slot
        self._maybe_rollover(slot)
        batch = self.queue.drain()
        if not batch:
            self.next_slot = slot + 1
            self.counts["slots"] += 1
            # Even an empty slot advances the billable clock; a resume
            # must not rewind it.  One tiny record.
            self._append_commit(slot, [])
            return []

        obs.gauge("service.batch_size", len(batch))
        obs.gauge("service.queue_depth", self.queue.depth)
        by_request_id: Dict[int, PendingTransfer] = {}
        requests: List[TransferRequest] = []
        headroom: Dict[int, float] = {}
        for pending in batch:
            request = TransferRequest(
                pending.source,
                pending.destination,
                pending.size_gb,
                pending.deadline_slots,
                release_slot=slot,
            )
            by_request_id[request.request_id] = pending
            requests.append(request)
            # Watermark headroom on the request's direct link *before*
            # this batch commits: how much it could have sent at the
            # release slot without raising the bill.
            headroom[request.request_id] = self._admission_headroom(
                request.source, request.destination, slot
            )

        trace_ids = [p.trace_id for p in batch[:TRACE_IDS_ATTR_CAP]]
        cost_before = self.state.current_cost_per_slot()
        escalations_before = getattr(self.scheduler, "escalations", 0)
        degraded_before = getattr(self.scheduler, "degraded", 0) + getattr(
            self.scheduler, "lp_skipped", 0
        )
        try:
            with obs.trace(slot=slot, trace_ids=trace_ids):
                with obs.timed_span(
                    "service.slot", slot=slot, batch=len(batch)
                ) as slot_span:
                    self.scheduler.on_slot(slot, requests)
        except Exception as exc:
            # Journaled as what it was: admit records left replayable would
            # be decided and billed after a restart, for clients told "failed".
            self.next_slot = slot + 1
            self.counts["slots"] += 1
            obs.counter("service.slot_failed", slot=slot, error=type(exc).__name__)
            self._append_commit(slot, batch, lane="failed")
            raise SlotFailed(slot, batch, exc) from exc
        decision_s = slot_span.seconds
        degraded_now = getattr(self.scheduler, "degraded", 0) + getattr(
            self.scheduler, "lp_skipped", 0
        )
        if degraded_now > degraded_before:
            # The watchdog finished (or skipped) this slot fast-lane-only;
            # replay must take the same lane, so record it as its own.
            lane = "degraded"
        elif getattr(self.scheduler, "escalations", 0) > escalations_before:
            lane = "lp"
        else:
            lane = "fast"
        # The slot's charged-cost delta: what this batch added to the
        # per-interval bill.  A joint solve prices the batch as a
        # whole, so the delta is attributed batch-level, not split.
        cost_delta = round(
            self.state.current_cost_per_slot() - cost_before, 9
        )

        now = time.perf_counter()
        wall_ts = round(self.wall_time(slot), 3)
        admitted_count = 0
        resolutions: List[Resolution] = []
        for request in requests:
            pending = by_request_id[request.request_id]
            completion = self.state.completions.get(request.request_id)
            admitted = completion is not None
            admitted_count += int(admitted)
            record = {
                "id": pending.client_id,
                "decision": DECISION_ADMITTED if admitted else DECISION_REJECTED,
                "slot": slot,
                "release_slot": slot,
                "deadline_slot": request.last_slot,
                "completion_slot": completion,
                "lane": lane,
                "trace": pending.trace_id,
                "wait_s": round(now - pending.enqueued_at, 6),
                "decision_s": round(decision_s, 6),
                "cost_delta": cost_delta,
                "headroom_gb": headroom[request.request_id],
                "wall_ts": wall_ts,
            }
            self.decisions[pending.client_id] = record
            self.counts["admitted" if admitted else "rejected"] += 1
            obs.counter(
                "service.admitted" if admitted else "service.rejected",
                lane=lane,
            )
            obs.counter(
                "service.lane",
                trace=pending.trace_id,
                id=pending.client_id,
                lane=lane,
                slot=slot,
            )
            obs.gauge(
                "service.charge_delta",
                cost_delta,
                trace=pending.trace_id,
                id=pending.client_id,
                lane=lane,
                slot=slot,
                batch=len(batch),
                headroom_gb=headroom[request.request_id],
            )
            resolutions.append((pending, record))
        obs.gauge("service.admission_latency_s", decision_s)
        obs.gauge("service.decision_s", decision_s)

        self.counts["slots"] += 1
        self.counts["batches"] += 1
        self.next_slot = slot + 1
        self.slo.record_slot(
            admitted_count, len(batch) - admitted_count, decision_s,
            self.queue.depth, degraded=int(lane == "degraded"),
        )
        if self.store:
            decided = {pending.client_id: record for pending, record in resolutions}
            self._unjournaled.update(decided)
            # Scheduler-owned fields are read back by its replay_slot.
            self._append_commit(
                slot, batch, decisions=decided, lane=lane,
                **getattr(self.scheduler, "wal_fields", lambda lane: {})(lane),
            )
        if self.store and (
            self.draining or self.next_slot % self.config.checkpoint_every == 0
        ):
            self.checkpoint()
        chaos.crashpoint("commit.pre_ack")
        self.slo.evaluate(emit=True)
        return resolutions

    def _append_commit(self, slot: int, batch: List[PendingTransfer], **fields) -> None:
        """Commit-before-ack at O(1) cost: the slot's record — and every
        admit written before it — is on disk before a waiter sees a decision."""
        if self.store and self.store.wal_enabled:
            self.store.append_wal({
                "type": REC_COMMIT, "slot": slot,
                "batch": [pending.client_id for pending in batch],
                "counts": dict(self.counts), **fields,
            })

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
            meta={"counts": self.counts, "wall_epoch": self.wall_epoch},
            decisions=self._unjournaled,
        )
        self._unjournaled = {}
        self.slo.record_checkpoint(time.perf_counter() - started)

    # -- reporting ---------------------------------------------------------

    def wall_time(self, slot: float) -> float:
        """Unix timestamp virtual ``slot`` maps to (billing alignment)."""
        return self.config.wall_time(slot, self.wall_epoch)

    def stamped_usage(self, top: int = 0) -> List[Dict[str, Any]]:
        """Per-link ledger samples stamped with wall-clock timestamps.

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
            "wal": bool(self.store and self.store.wal_enabled),
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
