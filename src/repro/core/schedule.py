"""Transfer schedules: the output of every scheduler.

A schedule is a bag of :class:`ScheduleEntry` rows — "move this volume
of file ``k`` over link (i, j) during slot ``n``" — plus helpers to
audit feasibility and aggregate per-link traffic.  Waiting is implied:
the paper's free, unbounded holdover arcs carry exactly what a file's
transmissions leave at a node, and their GB-slots ride as numbers.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.invariants import cell_tolerance
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

LinkSlot = Tuple[int, int, int]  # (src, dst, slot)

# Bound once: the fast lane builds a few entries per request.
_tuple_new = tuple.__new__


class ScheduleEntry(namedtuple("ScheduleEntry", "request_id src dst slot volume")):
    """One transmission (an immutable, hashable tuple): ``volume`` GB of
    file ``request_id`` leave ``src`` for ``dst`` during ``slot``."""

    __slots__ = ()

    def __new__(cls, request_id: int, src: int, dst: int, slot: int, volume: float):
        if volume < 0:
            raise SchedulingError(
                f"entry for file {request_id} has negative volume {volume}"
            )
        if src == dst:
            raise SchedulingError(
                f"entry for file {request_id} loops at {src}: waiting is implied"
            )
        return _tuple_new(cls, (request_id, src, dst, slot, volume))


#: Store-and-forward semantics: data arriving at a node during slot n
#: can leave no earlier than slot n+1 (the time-expanded-graph model).
SEMANTICS_STORE_AND_FORWARD = "store_and_forward"
#: Fluid semantics: data is relayed within the same slot it arrives
#: (the flow-based model of Sec. II-B, where a file is a constant-rate
#: flow along its paths).
SEMANTICS_FLUID = "fluid"


class TransferSchedule:
    """A set of committed scheduling decisions for one or more files.

    ``semantics`` declares which conservation law the schedule obeys —
    store-and-forward (Postcard) or fluid (the flow-based baseline) —
    and selects the matching feasibility audit in :meth:`validate`.
    Billing, capacity accounting and delivery accounting are identical
    under both.  ``stored`` lists ``(request id, GB-slots)`` of waiting
    in the order commit adds them up; a fluid schedule has none.
    """

    def __init__(
        self,
        entries: Iterable[ScheduleEntry] = (),
        semantics: str = SEMANTICS_STORE_AND_FORWARD,
        stored: Iterable[Tuple[int, float]] = (),
    ):
        if semantics not in (SEMANTICS_STORE_AND_FORWARD, SEMANTICS_FLUID):
            raise SchedulingError(f"unknown schedule semantics {semantics!r}")
        self.semantics = semantics
        self.entries: List[ScheduleEntry] = [
            e for e in entries if e.volume > VOLUME_ATOL
        ]
        self.stored: List[Tuple[int, float]] = list(stored)
        if self.stored and semantics == SEMANTICS_FLUID:
            raise SchedulingError("fluid schedules never wait: no holdover storage")

    # -- aggregation -----------------------------------------------------

    def link_slot_volumes(self) -> Dict[LinkSlot, float]:
        """Aggregate billable volume per (src, dst, slot)."""
        out: Dict[LinkSlot, float] = defaultdict(float)
        for e in self.entries:
            out[(e.src, e.dst, e.slot)] += e.volume
        return dict(out)

    def entries_for_request(self, request_id: int) -> List[ScheduleEntry]:
        return [e for e in self.entries if e.request_id == request_id]

    def total_transit_volume(self) -> float:
        """Billable GB across all links and slots (hops count separately)."""
        return sum(e.volume for e in self.entries)

    def total_storage_volume(self) -> float:
        """GB-slots of storage the schedule's waits use: :attr:`stored`,
        added in order (``sum`` may compensate, and round differently)."""
        total = 0.0
        for _, gb in self.stored:
            total += gb
        return total

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    # -- per-file accounting ------------------------------------------------

    def group_by_request(self) -> Dict[int, List[ScheduleEntry]]:
        """Entries per file, each list in schedule order (one pass)."""
        groups: Dict[int, List[ScheduleEntry]] = defaultdict(list)
        for e in self.entries:
            groups[e.request_id].append(e)
        return groups

    def delivered_volume(
        self, request: TransferRequest,
        entries: Optional[List[ScheduleEntry]] = None,
    ) -> float:
        """GB of ``request`` that reach its destination (net inflow).

        ``entries`` is the file's own group (:meth:`group_by_request`)
        when the caller already holds it; by default the schedule is
        scanned for it.  Inflow and outflow are summed in one pass.
        """
        if entries is None:
            entries = self.entries_for_request(request.request_id)
        destination, inflow, outflow = request.destination, 0.0, 0.0
        for _, src, dst, _, volume in entries:
            if dst == destination:
                inflow += volume
            if src == destination:
                outflow += volume
        return inflow - outflow

    def completion_slot(
        self, request: TransferRequest,
        entries: Optional[List[ScheduleEntry]] = None,
    ) -> Optional[int]:
        """Slot whose end sees the final byte delivered, or None.

        This is the actual transfer time ``T'_k`` measured in slots:
        ``completion_slot - release_slot + 1 <= deadline_slots`` must
        hold for a deadline-feasible schedule.  ``entries`` as for
        :meth:`delivered_volume`.
        """
        if entries is None:
            entries = self.entries_for_request(request.request_id)
        arrivals: Dict[int, float] = defaultdict(float)
        for e in entries:
            if e.dst == request.destination:
                arrivals[e.slot] += e.volume
            if e.src == request.destination:
                arrivals[e.slot] -= e.volume
        cumulative = 0.0
        for slot in sorted(arrivals):
            cumulative += arrivals[slot]
            if cumulative >= request.size_gb - max(VOLUME_ATOL, 1e-9 * request.size_gb):
                return slot
        return None

    # -- auditing -----------------------------------------------------------

    def validate(
        self,
        requests: List[TransferRequest],
        capacity_fn=None,
        atol: float = 1e-5,
        require_full_delivery: bool = True,
        deadline_slack: int = 0,
    ) -> Dict[int, List[ScheduleEntry]]:
        """Raise :class:`SchedulingError` unless this schedule is feasible.

        Checks, per file: delivery (full by default; partial schedules
        from the bulk-throughput extension pass
        ``require_full_delivery=False`` and are only checked for
        over-delivery), deadline (no movement outside the window, which
        implies on-time delivery given conservation), and flow
        conservation at every datacenter the file passes.  Checks, per
        link and slot: aggregate volume within ``capacity_fn(src, dst,
        slot)`` when provided, up to the ledger's own tolerance
        (:func:`repro.invariants.cell_tolerance`).  Returns every
        request's entries, in schedule order (:meth:`group_by_request`).
        """
        by_request = {r.request_id: r for r in requests}
        groups: Dict[int, List[ScheduleEntry]] = {rid: [] for rid in by_request}
        for e in self.entries:
            req = by_request.get(e.request_id)
            if req is None:
                raise SchedulingError(
                    f"schedule references unknown file {e.request_id}"
                )
            if not req.release_slot <= e.slot <= req.last_slot + deadline_slack:
                raise SchedulingError(
                    f"file {e.request_id} moves at slot {e.slot}, outside its "
                    f"window [{req.release_slot}, {req.last_slot + deadline_slack}]"
                )
            groups[e.request_id].append(e)

        for req in requests:
            entries = groups[req.request_id]
            delivered = self.delivered_volume(req, entries)
            tol = max(atol, atol * req.size_gb)
            if require_full_delivery and abs(delivered - req.size_gb) > tol:
                raise SchedulingError(
                    f"file {req.request_id} delivers {delivered:.6f} GB "
                    f"of {req.size_gb:.6f} GB"
                )
            if delivered > req.size_gb + tol:
                raise SchedulingError(
                    f"file {req.request_id} over-delivers: {delivered:.6f} GB "
                    f"of {req.size_gb:.6f} GB"
                )
            if self.semantics == SEMANTICS_STORE_AND_FORWARD:
                self._check_conservation(req, entries, tol, delivered)
            else:
                self._check_conservation_fluid(req, entries, atol)

        if capacity_fn is not None:
            for (src, dst, slot), volume in self.link_slot_volumes().items():
                cap = capacity_fn(src, dst, slot)
                if volume > cap and volume > cap + min(
                    max(atol, atol * cap), cell_tolerance(cap)
                ):
                    raise SchedulingError(
                        f"link ({src},{dst}) carries {volume:.6f} GB at slot "
                        f"{slot}, over capacity {cap:.6f}"
                    )
        return groups

    @staticmethod
    def _check_conservation(
        request: TransferRequest, entries: List[ScheduleEntry], tol: float,
        emitted: float,
    ) -> None:
        """Store-and-forward conservation for one file (``entries``).

        Waiting is implied, so each datacenter is a running balance over
        the file's transmissions in slot order: ``emitted`` GB (what the
        file delivers) appear at ``(source, release)``, a transmission
        during slot ``n`` leaves its tail at ``n`` and lands at its head
        at ``n + 1``, before that slot's departures.  The balance is what
        waits there: never below ``-tol``, and zero at the end everywhere
        but the destination, which absorbs — exactly when non-negative
        holdovers exist that balance every time-expanded node.
        """
        destination = request.destination
        events = [(request.source, request.release_slot, 0, emitted)]
        for _, src, dst, slot, volume in entries:
            events += ((src, slot, 1, -volume), (dst, slot + 1, 0, volume))
        events.sort()
        events.append((None, None, 0, 0.0))  # settles the last datacenter
        node, level = events[0][:2], 0.0
        for at, slot, _, delta in events:
            if at != node[0]:
                if node[0] != destination and abs(level) > tol:
                    break
                level = 0.0
            node = at, slot
            level += delta
            if level < -tol:
                break
        else:
            return
        raise SchedulingError(
            f"file {request.request_id}: destination node {node} re-emits "
            f"{-level:.6f} GB" if node[0] == destination else
            f"file {request.request_id}: conservation violated at node "
            f"{node}: net {level:.6f}, expected 0.000000"
        )

    @staticmethod
    def _check_conservation_fluid(
        request: TransferRequest, entries: List[ScheduleEntry], atol: float
    ) -> None:
        """Fluid conservation: within every slot, each intermediate node
        relays exactly what it receives; the source only emits and the
        destination only absorbs."""
        net_out: Dict[Tuple[int, int], float] = defaultdict(float)
        for e in entries:
            net_out[(e.src, e.slot)] += e.volume
            net_out[(e.dst, e.slot)] -= e.volume
        tol = max(atol, atol * request.size_gb)
        for (node, slot), net in net_out.items():
            if node == request.source:
                if net < -tol:
                    raise SchedulingError(
                        f"file {request.request_id}: source absorbs "
                        f"{-net:.6f} GB at slot {slot}"
                    )
            elif node == request.destination:
                if net > tol:
                    raise SchedulingError(
                        f"file {request.request_id}: destination emits "
                        f"{net:.6f} GB at slot {slot}"
                    )
            elif abs(net) > tol:
                raise SchedulingError(
                    f"file {request.request_id}: fluid conservation violated "
                    f"at node {node}, slot {slot}: net {net:.6f}"
                )

    def __repr__(self) -> str:
        return (
            f"TransferSchedule(semantics={self.semantics!r}, "
            f"entries={len(self.entries)}, "
            f"transit_gb={self.total_transit_volume():.3f})"
        )
