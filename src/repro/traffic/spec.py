"""The paper's four-tuple file specification.

A *file* is any block of delay-tolerant inter-datacenter data — a
backup, a batch of MapReduce intermediates, a customer-data migration —
described by ``(s_k, d_k, F_k, T_k)``: source, destination, size in GB,
and maximum tolerable transfer time in whole slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import WorkloadError

_request_ids = itertools.count()


def peek_next_request_id() -> int:
    """The id the next :class:`TransferRequest` will receive.

    Consumes nothing: the counter is advanced and immediately re-seeded.
    Checkpoint writers record this watermark so a restored process can
    keep its ids disjoint from the ones already in the snapshot.
    """
    global _request_ids
    value = next(_request_ids)
    _request_ids = itertools.count(value)
    return value


def ensure_request_ids_above(minimum: int) -> None:
    """Advance the process-local id counter to at least ``minimum``.

    Request ids are process-local; a state checkpoint restored into a
    fresh process carries completions keyed by the *old* process's ids.
    Restoring must bump the counter past the snapshot's watermark, or
    newly created requests would collide with restored accounting.
    """
    global _request_ids
    if peek_next_request_id() < minimum:
        _request_ids = itertools.count(minimum)


@dataclass(frozen=True)
class TransferRequest:
    """One inter-datacenter transfer: the paper's file ``k``.

    ``release_slot`` is the slot at which the file becomes known to the
    scheduler (the paper's time ``t``); the transfer must complete by
    the end of slot ``release_slot + deadline_slots - 1``, i.e. data may
    move during slots ``release_slot .. release_slot + deadline_slots - 1``.
    """

    source: int
    destination: int
    size_gb: float
    deadline_slots: int
    release_slot: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self):
        if self.source == self.destination:
            raise WorkloadError(
                f"request {self.request_id}: source equals destination ({self.source})"
            )
        if self.size_gb <= 0:
            raise WorkloadError(
                f"request {self.request_id}: size must be positive, got {self.size_gb}"
            )
        if self.deadline_slots < 1:
            raise WorkloadError(
                f"request {self.request_id}: deadline must be >= 1 slot, "
                f"got {self.deadline_slots}"
            )
        if self.release_slot < 0:
            raise WorkloadError(
                f"request {self.request_id}: release slot must be non-negative"
            )

    @property
    def last_slot(self) -> int:
        """Last slot during which this file's data may move."""
        return self.release_slot + self.deadline_slots - 1

    @property
    def desired_rate(self) -> float:
        """The flow-based model's rate: size spread evenly over the
        deadline (GB per slot)."""
        return self.size_gb / self.deadline_slots

    def with_release(self, release_slot: int) -> "TransferRequest":
        """Copy of this request released at a different slot."""
        return TransferRequest(
            source=self.source,
            destination=self.destination,
            size_gb=self.size_gb,
            deadline_slots=self.deadline_slots,
            release_slot=release_slot,
        )

    def __str__(self) -> str:
        return (
            f"file#{self.request_id} {self.source}->{self.destination} "
            f"{self.size_gb:g} GB within {self.deadline_slots} slots "
            f"(released t={self.release_slot})"
        )


def expand_multicast(
    source: int,
    destinations: Sequence[int],
    size_gb: float,
    deadline_slots: int,
    release_slot: int = 0,
) -> List[TransferRequest]:
    """One file to many destinations, as Sec. III prescribes: introduce a
    separate request per destination with identical size and deadline."""
    if not destinations:
        raise WorkloadError("multicast needs at least one destination")
    if len(set(destinations)) != len(destinations):
        raise WorkloadError("duplicate multicast destinations")
    return [
        TransferRequest(source, dst, size_gb, deadline_slots, release_slot)
        for dst in destinations
    ]
