"""Per-link availability windows: time-varying topologies.

Postcard's time-expanded graph prices every ``(link, slot)`` cell
independently, which makes it the natural home for links that only
exist during *scheduled* windows — LEO ground-station passes, periodic
downlink appointments, planned maintenance, data-mule shuttles.  A
:class:`LinkSchedule` overlays the static :class:`~repro.net.topology.
Topology` with per-link **availability windows** (half-open slot
ranges): a link that appears in the schedule carries traffic only
during its windows; outside them its per-slot capacity is zero.  Links
the schedule never mentions stay always-on, so a schedule composes
with any existing topology without rewriting it.

The schedule is consulted at one choke point —
:meth:`NetworkState.residual_capacity <repro.core.state.NetworkState.
residual_capacity>` reports zero on a dark cell — so every scheduler
in the library (LP, flow-based, fast lane, hybrid, baselines)
transparently routes *and time-shifts* around dark windows, commits
fail loudly on any attempt to use one, and the simulation engine's
post-run audit re-checks the ledger against the windows.

Windows are **mutable** (a pass gets extended, an emergency
maintenance lands): every mutation bumps a global :attr:`epoch` and
the affected link's :meth:`link_epoch`, which is what lets the
incremental machinery — the time-expanded graph cache's arc reuse
(see ``scripts/bench_schedule.py``) and the fast lane's
:class:`~repro.heuristic.paths.CandidatePathIndex` — invalidate only
what actually changed instead of rebuilding from scratch.

Semantics of the half-open window ``[start_slot, end_slot)``: the link
can carry data during slots ``start_slot .. end_slot - 1``; data must
have *left* the link's tail by the window's last slot.  Overlapping or
adjacent windows on one link are merged on insertion, so
:meth:`windows_for` is always sorted and disjoint.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import orjson

from repro.errors import TopologyError
from repro.net.topology import LinkKey

PathLike = Union[str, Path]

#: One merged availability span, as stored per link: (start, end).
Span = Tuple[int, int]


@dataclass(frozen=True)
class AvailabilityWindow:
    """One link up for slots ``[start_slot, end_slot)``.

    The mirror image of :class:`repro.sim.faults.Outage` (a link *down*
    for a span): schedules whitelist slots, outages blacklist them.
    """

    src: int
    dst: int
    start_slot: int
    end_slot: int

    def __post_init__(self):
        if self.src == self.dst:
            raise TopologyError(
                f"window on self-loop ({self.src},{self.dst})"
            )
        if self.start_slot < 0 or self.end_slot <= self.start_slot:
            raise TopologyError(
                f"window on ({self.src},{self.dst}) has empty span "
                f"[{self.start_slot}, {self.end_slot})"
            )

    @property
    def key(self) -> LinkKey:
        return (self.src, self.dst)

    def covers(self, slot: int) -> bool:
        return self.start_slot <= slot < self.end_slot

    @property
    def slots(self) -> range:
        return range(self.start_slot, self.end_slot)


class LinkSchedule:
    """Availability windows per overlay link, with change epochs.

    A link **not** in the schedule is always up (the static-topology
    default).  A link *in* the schedule is up exactly during its
    windows — including the degenerate "scheduled but windowless" case
    (:meth:`schedule_link` with no windows yet, or every window
    removed), which models a circuit that exists on paper but has no
    booked pass: always dark until a window is added.

    Queries are O(log W) in the link's window count via bisect over
    the merged spans; mutations are O(W) (re-merge one link's list).
    """

    def __init__(self, windows: Iterable[AvailabilityWindow] = ()):
        #: link key -> merged, sorted, disjoint (start, end) spans.
        #: Presence of a key — even with an empty list — means the
        #: link is *scheduled* (dark outside its spans).
        self._spans: Dict[LinkKey, List[Span]] = {}
        #: Monotone counter bumped by every mutation; cache keys
        #: derived from schedule state must include it.
        self.epoch: int = 0
        self._link_epochs: Dict[LinkKey, int] = {}
        for window in windows:
            self.add_window(window)

    # -- mutation ---------------------------------------------------------

    def _touch(self, key: LinkKey) -> None:
        self.epoch += 1
        self._link_epochs[key] = self.epoch

    def schedule_link(self, src: int, dst: int) -> None:
        """Put a link under schedule control (dark until windowed)."""
        key = (src, dst)
        if key not in self._spans:
            self._spans[key] = []
            self._touch(key)

    def add_window(self, window: AvailabilityWindow) -> None:
        """Add one availability span, merging overlaps and adjacency."""
        spans = self._spans.setdefault(window.key, [])
        spans.append((window.start_slot, window.end_slot))
        self._spans[window.key] = _merge(spans)
        self._touch(window.key)

    def set_windows(self, src: int, dst: int, spans: Iterable[Span]) -> None:
        """Replace one link's spans wholesale (schedule-churn path)."""
        merged = _merge(
            [(AvailabilityWindow(src, dst, s, e).start_slot, e) for s, e in spans]
        )
        self._spans[(src, dst)] = merged
        self._touch((src, dst))

    # -- queries ----------------------------------------------------------

    def is_up(self, src: int, dst: int, slot: int) -> bool:
        """Can the link carry traffic during ``slot``?"""
        spans = self._spans.get((src, dst))
        if spans is None:
            return True
        i = bisect_right(spans, (slot, float("inf")))
        return i > 0 and spans[i - 1][1] > slot

    def up_in_range(self, src: int, dst: int, start: int, end: int) -> bool:
        """Any up-slot inside the half-open range ``[start, end)``?"""
        spans = self._spans.get((src, dst))
        if spans is None:
            return True
        if end <= start:
            return False
        i = bisect_right(spans, (start, float("inf")))
        if i > 0 and spans[i - 1][1] > start:
            return True
        return i < len(spans) and spans[i][0] < end

    def fully_up_in_range(self, src: int, dst: int, start: int, end: int) -> bool:
        """Is the link up throughout the half-open range ``[start, end)``?"""
        spans = self._spans.get((src, dst))
        if spans is None or end <= start:
            return True
        i = bisect_right(spans, (start, float("inf")))
        return i > 0 and spans[i - 1][1] >= end

    def up_mask(self, src: int, dst: int, start: int, end: int) -> int:
        """The link's up-slots in ``[start, end)`` as bits: bit ``i`` is
        set when slot ``start + i`` is up.  Relative to ``start``, so a
        span far in the future never builds a huge integer."""
        if end <= start:
            return 0
        spans = self._spans.get((src, dst))
        if spans is None:
            return (1 << (end - start)) - 1
        mask = 0
        i = bisect_right(spans, (start, float("inf")))
        if i > 0 and spans[i - 1][1] > start:
            i -= 1
        for lo, hi in spans[i:]:
            if lo >= end:
                break
            lo, hi = max(lo, start) - start, min(hi, end) - start
            mask |= ((1 << (hi - lo)) - 1) << lo
        return mask

    def link_epoch(self, src: int, dst: int) -> int:
        """Epoch of the last mutation touching this link (0 = never)."""
        return self._link_epochs.get((src, dst), 0)

    def windows_for(self, src: int, dst: int) -> List[AvailabilityWindow]:
        """The merged windows of one link, sorted (empty if unscheduled)."""
        return [
            AvailabilityWindow(src, dst, s, e)
            for s, e in self._spans.get((src, dst), [])
        ]

    def scheduled_links(self) -> List[LinkKey]:
        """All links under schedule control, sorted."""
        return sorted(self._spans)

    @property
    def num_windows(self) -> int:
        return sum(len(spans) for spans in self._spans.values())

    def __iter__(self) -> Iterator[AvailabilityWindow]:
        for (src, dst) in sorted(self._spans):
            yield from self.windows_for(src, dst)

    def __len__(self) -> int:
        """Number of scheduled links (not windows)."""
        return len(self._spans)

    def coverage(self, num_slots: int) -> float:
        """Mean up-fraction of the scheduled links over ``[0, num_slots)``.

        1.0 means the schedule never darkens anything in the span
        (or nothing is scheduled); 0.0 means scheduled links are dark
        throughout.  Unscheduled links do not dilute the figure.
        """
        if num_slots < 1:
            raise TopologyError(f"num_slots must be >= 1, got {num_slots}")
        if not self._spans:
            return 1.0
        total = 0.0
        for spans in self._spans.values():
            up = sum(
                max(0, min(end, num_slots) - max(start, 0))
                for start, end in spans
            )
            total += up / num_slots
        return total / len(self._spans)

    def describe(self, num_slots: Optional[int] = None) -> str:
        """One human line: links, windows, and optional coverage."""
        text = (
            f"link-schedule: {len(self._spans)} links windowed, "
            f"{self.num_windows} windows"
        )
        if num_slots:
            text += f", coverage {self.coverage(num_slots):.0%} over {num_slots} slots"
        return text

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> dict:
        """A JSON-ready dict (windowless scheduled links included)."""
        return {
            "windows": [
                {
                    "src": w.src,
                    "dst": w.dst,
                    "start_slot": w.start_slot,
                    "end_slot": w.end_slot,
                }
                for w in self
            ],
            "scheduled_links": [
                [src, dst]
                for (src, dst) in self.scheduled_links()
                if not self._spans[(src, dst)]
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LinkSchedule":
        if not isinstance(payload, dict) or "windows" not in payload:
            raise TopologyError(
                "link-schedule payload needs a 'windows' list"
            )
        schedule = cls(
            AvailabilityWindow(
                int(w["src"]), int(w["dst"]),
                int(w["start_slot"]), int(w["end_slot"]),
            )
            for w in payload["windows"]
        )
        for src, dst in payload.get("scheduled_links", []):
            schedule.schedule_link(int(src), int(dst))
        return schedule

    def to_file(self, path: PathLike) -> None:
        Path(path).write_bytes(orjson.dumps(
            self.to_payload(), option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE))

    @classmethod
    def from_file(cls, path: PathLike) -> "LinkSchedule":
        try:
            payload = orjson.loads(Path(path).read_bytes())
        except (OSError, orjson.JSONDecodeError) as exc:
            raise TopologyError(f"cannot load link schedule {path}: {exc}") from exc
        return cls.from_payload(payload)

    def __repr__(self) -> str:
        return (
            f"LinkSchedule(links={len(self._spans)}, "
            f"windows={self.num_windows}, epoch={self.epoch})"
        )


def _merge(spans: List[Span]) -> List[Span]:
    """Sort and merge overlapping or adjacent half-open spans."""
    merged: List[Span] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged
