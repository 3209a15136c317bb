"""Oracles over a schedule and the books it would land on, kept beside the
tests that read them (no production path asks these questions).

:func:`storage_slot_volumes` derives a schedule's waiting GB per
(datacenter, slot) from its transmissions alone, which the storage and
conservation tests hold the schedulers' ``stored`` GB-slots against;
:func:`preview_cost` prices a plan against the books without committing it.
:func:`validate` and :func:`commit` (with :func:`group_by_request`) are
the audit and the commit as they were before
:meth:`TransferSchedule.validate` became one walk per file: each check a
pass of its own, capacity asked one cell at a time, and the books
written through ``TrafficLedger.record`` and re-read per touched cell.
``tests/test_schedule_property.py`` holds the walk to them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.schedule import SEMANTICS_STORE_AND_FORWARD, ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.errors import SchedulingError
from repro.invariants import cell_tolerance
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


def storage_slot_volumes(
    schedule: TransferSchedule, requests: Iterable[TransferRequest] = ()
) -> Dict[Tuple[int, int], float]:
    """GB waiting per (datacenter, slot), derived from the transmissions.

    A datacenter holds over slot ``n`` the running balance
    :meth:`~repro.core.schedule.TransferSchedule.validate` walks, up to its
    last transmission.  One that sends more than it receives is the file's
    source and holds the difference from the release of the file in
    ``requests`` (from its first departure if the file is not listed); one
    that receives more is the destination, whose data is delivered, not
    stored.
    """
    release = {r.request_id: r.release_slot for r in requests}
    flows = defaultdict(lambda: defaultdict(float))  # (file, node) -> slot -> GB
    for rid, src, dst, slot, volume in schedule.entries:
        flows[(rid, src)][slot] -= volume
        flows[(rid, dst)][slot + 1] += volume
    out: Dict[Tuple[int, int], float] = defaultdict(float)
    for (rid, node), changes in flows.items():
        supply = -sum(changes.values())
        if supply < -VOLUME_ATOL:
            continue
        if supply > VOLUME_ATOL:
            changes[release.get(rid, min(changes))] += supply
        level, slots = 0.0, sorted(changes)
        for slot, after in zip(slots, slots[1:]):
            level += changes[slot]
            if level > VOLUME_ATOL:
                for n in range(slot, after):
                    out[(node, n)] += level
    return dict(out)


def preview_cost(state: NetworkState, schedule: TransferSchedule) -> float:
    """Cost per slot if ``schedule`` were committed, without committing it:
    every link's new peak is ``max(X_ij(t-1), max_n (B_ij(n) + load))``."""
    peaks = state.charged_snapshot()
    for (src, dst, slot), volume in schedule.link_slot_volumes().items():
        level = state.committed_volume(src, dst, slot) + volume
        if level > peaks[(src, dst)]:
            peaks[(src, dst)] = level
    return sum(link.price * peaks[link.key] for link in state.topology.links)


def group_by_request(schedule: TransferSchedule) -> Dict[int, List[ScheduleEntry]]:
    """Entries per file, each list in schedule order."""
    groups: Dict[int, List[ScheduleEntry]] = defaultdict(list)
    for e in schedule.entries:
        groups[e.request_id].append(e)
    return groups


def validate(
    schedule: TransferSchedule,
    requests: List[TransferRequest],
    capacity_fn=None,
    atol: float = 1e-5,
    require_full_delivery: bool = True,
    deadline_slack: int = 0,
) -> Dict[int, List[ScheduleEntry]]:
    """Raise :class:`SchedulingError` unless ``schedule`` is feasible:
    windows, then per file delivery and conservation, then every cell's
    capacity (``capacity_fn(src, dst, slot)``).  Returns every request's
    entries in schedule order."""
    by_request = {r.request_id: r for r in requests}
    groups: Dict[int, List[ScheduleEntry]] = {rid: [] for rid in by_request}
    for e in schedule.entries:
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
        delivered = schedule.delivered_volume(req, entries)
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
        if schedule.semantics == SEMANTICS_STORE_AND_FORWARD:
            _check_conservation(req, entries, tol, delivered)
        else:
            _check_conservation_fluid(req, entries, atol)

    if capacity_fn is not None:
        for (src, dst, slot), volume in schedule.link_slot_volumes().items():
            cap = capacity_fn(src, dst, slot)
            if volume > cap and volume > cap + min(
                max(atol, atol * cap), cell_tolerance(cap)
            ):
                raise SchedulingError(
                    f"link ({src},{dst}) carries {volume:.6f} GB at slot "
                    f"{slot}, over capacity {cap:.6f}"
                )
    return groups


def _check_conservation(
    request: TransferRequest, entries: List[ScheduleEntry], tol: float,
    emitted: float,
) -> None:
    """Store-and-forward conservation for one file, as a running balance
    per datacenter over its transmissions in slot order."""
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


def _check_conservation_fluid(
    request: TransferRequest, entries: List[ScheduleEntry], atol: float
) -> None:
    """Fluid conservation: within every slot, each intermediate node
    relays exactly what it receives."""
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


def completion_slot(
    request: TransferRequest, entries: Iterable[ScheduleEntry]
) -> Optional[int]:
    """Slot whose end sees the file's last byte delivered, or None."""
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


def commit(
    state: NetworkState,
    schedule: TransferSchedule,
    requests: List[TransferRequest],
    validate_first: bool = True,
    per_file: bool = False,
) -> None:
    """:meth:`NetworkState.commit` as it was: :func:`validate` against
    ``state.residual_capacity`` per cell, completions per file, each
    file's (or the batch's) cell sums written through
    ``TrafficLedger.record``, then each touched cell re-read to raise the
    charged peaks.  Emits no telemetry."""
    if validate_first:
        groups = validate(schedule, requests, capacity_fn=state.residual_capacity)
    else:
        groups = group_by_request(schedule)
    completions = {}
    for request in requests:
        completion = completion_slot(request, groups.get(request.request_id, ()))
        if completion is None:
            raise SchedulingError(
                f"commit: file {request.request_id} is not delivered "
                "by the schedule"
            )
        completions[request.request_id] = completion
    if per_file:
        batches = [groups.get(request.request_id, ()) for request in requests]
    else:
        batches = [schedule.entries]
    touched = set()
    for entries in batches:
        summed: Dict[Tuple[int, int, int], float] = defaultdict(float)
        for _, src, dst, slot, volume in entries:
            summed[(src, dst, slot)] += volume
        for (src, dst, slot), volume in summed.items():
            state.ledger.record(src, dst, slot, volume)
            touched.add((src, dst, slot))
    for src, dst, slot in touched:
        level = state.ledger.volume(src, dst, slot)
        if level > state._charged[(src, dst)]:
            state._charged[(src, dst)] = level
    if per_file:
        waits: Dict[int, float] = defaultdict(float)
        for rid, gb in schedule.stored:
            waits[rid] += gb
        for request in requests:
            state.storage_used += waits.get(request.request_id, 0.0)
    else:
        state.storage_used += schedule.total_storage_volume()
    state.completions.update(completions)
