"""Oracles over a schedule and the books it would land on, kept beside the
tests that read them (no production path asks either question).

:func:`storage_slot_volumes` derives a schedule's waiting GB per
(datacenter, slot) from its transmissions alone, which the storage and
conservation tests hold the schedulers' ``stored`` GB-slots against;
:func:`preview_cost` prices a plan against the books without committing it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Tuple

from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
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
