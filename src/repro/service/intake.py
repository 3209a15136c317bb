"""The bounded intake queue between the wire and the slot loop.

Accepted submissions wait here until the next virtual-slot tick drains
them into a batch ``K(t)``.  The queue has an explicit depth bound —
when it saturates the daemon *rejects with retry-after* instead of
buffering without limit, which is what keeps a surge from turning into
unbounded memory growth and seconds-long admission latency.  The
retry-after estimate is proportional to how many ticks the backlog
needs to clear at the configured batch size.

The queue emits no per-offer telemetry: the slot loop samples
``service.queue_depth`` once per slot, just before it drains the batch,
so the gauge's max is still each interval's peak depth.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import BackpressureError
from repro.obs import registry as obs


@dataclass
class PendingTransfer:
    """One accepted submission waiting for its slot.

    ``waiter`` is what the server parks the client's response on:
    anything with ``done()``, ``set_result(response)`` and ``cancel()``
    — a connection's reply slot (:class:`repro.service.server.Reply`),
    or a future for socket-free callers.  The synchronous broker core
    leaves it ``None`` and callers read the decision log instead.
    """

    client_id: str
    source: int
    destination: int
    size_gb: float
    deadline_slots: int
    enqueued_at: float = field(default_factory=time.perf_counter)
    waiter: Optional[Any] = None
    #: Trace id assigned at intake; every event on this submission's
    #: decision path (intake -> batch -> lane -> solve -> charge)
    #: carries it, and it survives checkpoints so a resumed daemon's
    #: events still link up.
    trace_id: str = ""

    def to_payload(self) -> Dict[str, Any]:
        """The checkpoint representation (waiters don't survive a crash)."""
        return {
            "id": self.client_id,
            "source": self.source,
            "destination": self.destination,
            "size_gb": self.size_gb,
            "deadline_slots": self.deadline_slots,
            "trace": self.trace_id,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PendingTransfer":
        return cls(
            client_id=str(payload["id"]),
            source=int(payload["source"]),
            destination=int(payload["destination"]),
            size_gb=float(payload["size_gb"]),
            deadline_slots=int(payload["deadline_slots"]),
            trace_id=str(payload.get("trace", "")),
        )


class IntakeQueue:
    """FIFO of :class:`PendingTransfer` with a hard depth bound.

    ``offer`` raises :class:`BackpressureError` (with a retry-after
    estimate) at the bound; ``drain`` pops up to one batch in arrival
    order.  Arrival order is part of the service's determinism story:
    identical submission sequences produce identical batches, hence
    identical schedules.

    Beside the deque, ``_by_id`` maps each waiting client id to its
    entries in queue order (one, unless a caller queued a duplicate), so
    ``find``/``contains``/``remove`` never scan the backlog — at 1000
    submissions per slot the scan was O(B^2) per slot.
    """

    def __init__(self, max_depth: int, tick_seconds: float, max_batch: int = 0):
        self.max_depth = max_depth
        self.tick_seconds = tick_seconds
        self.max_batch = max_batch
        self._queue: deque = deque()
        self._by_id: Dict[str, List[PendingTransfer]] = {}

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        return len(self._queue)

    def retry_after(self) -> float:
        """Ticks needed to clear the backlog, in seconds (>= one tick)."""
        tick = self.tick_seconds or 1.0
        per_slot = self.max_batch or max(1, self.max_depth)
        backlog_ticks = max(1, -(-len(self._queue) // per_slot))
        return round(backlog_ticks * tick, 6)

    def offer(self, pending: PendingTransfer) -> None:
        """Enqueue, or raise :class:`BackpressureError` at the bound."""
        if len(self._queue) >= self.max_depth:
            obs.counter("service.backpressure")
            raise BackpressureError(
                f"intake queue is full ({self.max_depth} pending)",
                retry_after_s=self.retry_after(),
            )
        self._queue.append(pending)
        self._by_id.setdefault(pending.client_id, []).append(pending)

    def requeue_front(self, items: List[PendingTransfer]) -> None:
        """Put restored checkpoint entries back ahead of live arrivals."""
        for pending in reversed(items):
            self._queue.appendleft(pending)
            self._by_id.setdefault(pending.client_id, []).insert(0, pending)

    def drain(self) -> List[PendingTransfer]:
        """Pop the next slot's batch (whole queue when ``max_batch=0``)."""
        limit = self.max_batch or len(self._queue)
        batch = []
        while self._queue and len(batch) < limit:
            batch.append(self._queue.popleft())
        self._unindex(batch)
        return batch

    def _unindex(self, gone: List[PendingTransfer]) -> None:
        """Forget entries that left the deque; each was the earliest of its id."""
        for pending in gone:
            waiting = self._by_id[pending.client_id]
            del waiting[0]
            if not waiting:
                del self._by_id[pending.client_id]

    def _pull(self, taken: List[PendingTransfer]) -> None:
        """Remove ``taken`` from wherever they wait: ends first, then one pass."""
        gone = {id(pending) for pending in taken}
        queue = self._queue
        while gone and id(queue[0]) in gone:
            gone.discard(id(queue.popleft()))
        while gone and id(queue[-1]) in gone:
            gone.discard(id(queue.pop()))
        if gone:
            self._queue = deque(p for p in queue if id(p) not in gone)
        self._unindex(taken)

    def contains(self, client_id: str) -> bool:
        """True while a submission with this id is waiting for a slot."""
        return client_id in self._by_id

    def find(self, client_id: str) -> Optional[PendingTransfer]:
        """The waiting entry with this id, or None.

        The duplicate-submit attach path reads (and re-parks a waiter
        on) the live entry without disturbing its queue position.
        """
        waiting = self._by_id.get(client_id)
        return waiting[0] if waiting else None

    def pending_ids(self) -> List[str]:
        """Client ids of everything still waiting, in arrival order."""
        return [pending.client_id for pending in self._queue]

    def remove(self, client_id: str) -> Optional[PendingTransfer]:
        """Pull one waiting submission back out (journal-failure rollback)."""
        pending = self.find(client_id)
        if pending is not None:
            self._pull([pending])
        return pending

    def take_ids(self, client_ids: List[str]) -> List[PendingTransfer]:
        """Remove and return the named submissions, in the given order.

        The WAL replay path: a commit record names exactly which queued
        ids its slot batched, and replay must rebuild that batch —
        whatever else has been queued around them.  Raises ``KeyError``
        on an id that is not waiting (a WAL/queue inconsistency the
        caller escalates).
        """
        missing = [cid for cid in client_ids if cid not in self._by_id]
        if missing:
            raise KeyError(
                f"ids named by a WAL commit are not in the queue: {missing}"
            )
        taken = [self._by_id[cid][0] for cid in client_ids]
        self._pull(taken)
        return taken

    def snapshot_payloads(self) -> List[Dict[str, Any]]:
        """Checkpoint encoding of everything still waiting."""
        return [pending.to_payload() for pending in self._queue]
