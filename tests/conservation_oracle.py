"""The explicit store-and-forward conservation check, kept as an oracle.

A schedule once listed every wait as a holdover entry ``(k, i, i, n, GB)``
beside its transmissions, and the audit balanced each time-expanded
node's flow.  :meth:`~repro.core.schedule.TransferSchedule.validate` now
walks a running balance per datacenter instead, with waiting implied.
This module keeps the explicit check over plain ``(request_id, src, dst,
slot, volume)`` tuples — ``src == dst`` for a holdover — and
:func:`derive_holdovers` writes the holdovers a list of transmissions
implies, so the two audits can be compared on the same schedules
(``tests/test_conservation_property.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.traffic.spec import TransferRequest

Row = Tuple[int, int, int, int, float]


def check_conservation(
    request: TransferRequest, entries: List[Row], atol: float = 1e-5,
    delivered: Optional[float] = None,
) -> None:
    """Flow conservation for one file (``entries``, holdovers included)
    at every time-expanded node.

    ``delivered`` overrides the expected source emission for
    partial-delivery schedules (bulk throughput); by default the whole
    file must leave the source.
    """
    emitted = request.size_gb if delivered is None else delivered
    balance: Dict[Tuple[int, int], float] = defaultdict(float)
    for _, src, dst, slot, volume in entries:
        balance[(src, slot)] -= volume       # leaves tail node
        balance[(dst, slot + 1)] += volume   # enters head node
    source = (request.source, request.release_slot)
    tol = max(atol, atol * request.size_gb)
    for node, net in balance.items():
        if node == source:
            expected = -emitted
        elif node[0] == request.destination:
            # Arrival nodes at the destination absorb flow; partial
            # arrivals across several slots are each non-negative.
            if net < -tol:
                raise SchedulingError(
                    f"file {request.request_id}: destination node {node} "
                    f"re-emits {-net:.6f} GB"
                )
            continue
        else:
            expected = 0.0
        if abs(net - expected) > tol:
            raise SchedulingError(
                f"file {request.request_id}: conservation violated at "
                f"node {node}: net {net:.6f}, expected {expected:.6f}"
            )


def derive_holdovers(request: TransferRequest, transits: List[Row]) -> List[Row]:
    """The holdover rows one file's transmissions imply.

    Per datacenter, the file's whole size appears at ``(source, release)``
    and each transmission leaves its tail at its slot and lands at its
    head a slot later.  Between a datacenter's first and last event the
    volume held over slot ``n`` is what has arrived minus what has left
    by then — clipped at zero, since a holdover cannot be negative, so a
    schedule that sends data before it arrives stays unbalanced.
    """
    rid = request.request_id
    events: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
    events[request.source].append((request.release_slot, request.size_gb))
    for _, src, dst, slot, volume in transits:
        events[src].append((slot, -volume))
        events[dst].append((slot + 1, volume))
    holdovers: List[Row] = []
    for node, moves in events.items():
        moves.sort()
        level = 0.0
        at = 0
        for n in range(moves[0][0], moves[-1][0]):
            while moves[at][0] <= n:
                level += moves[at][1]
                at += 1
            if level > 0.0:
                holdovers.append((rid, node, node, n, level))
    return holdovers
