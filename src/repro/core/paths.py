"""Path decomposition of store-and-forward schedules.

An LP solution assigns volumes to time-expanded arcs; operators think
in terms of *paths*: "2 GB leave DC2 at slot 3, wait one slot at DC1,
arrive at DC4 at slot 6".  This module strips a file's arc flows into
such timed paths (the classic flow-decomposition argument on a DAG:
repeatedly follow positive arcs from the source, peel off the
bottleneck volume; termination is guaranteed because each round zeroes
at least one arc).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SchedulingError
from repro.core.schedule import TransferSchedule
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

#: A time-expanded node: (datacenter id, layer index); layer ``n`` is
#: the start of slot ``n``.
TimeNode = Tuple[int, int]


@dataclass(frozen=True)
class TimedPath:
    """One path through the time-expanded graph with a volume.

    ``nodes`` is the sequence of (datacenter, layer) hops, source
    first.  Consecutive nodes with the same datacenter are storage
    steps; datacenter changes are transmissions.
    """

    nodes: Tuple[TimeNode, ...]
    volume: float

    @property
    def hop_count(self) -> int:
        """Number of actual transmissions along the path."""
        return sum(
            1 for a, b in zip(self.nodes, self.nodes[1:]) if a[0] != b[0]
        )

    @property
    def storage_slots(self) -> int:
        """Number of slots the volume spends parked at a datacenter."""
        return sum(
            1 for a, b in zip(self.nodes, self.nodes[1:]) if a[0] == b[0]
        )

    @property
    def departure_slot(self) -> int:
        return self.nodes[0][1]

    @property
    def arrival_slot(self) -> int:
        """Slot *boundary* at which the volume is at the destination."""
        return self.nodes[-1][1]

    def describe(self) -> str:
        return f"{self.volume:g} GB: " + ", ".join(
            f"slot {a[1]}: " + (f"hold@{a[0]}" if a[0] == b[0] else f"{a[0]}->{b[0]}")
            for a, b in zip(self.nodes, self.nodes[1:])
        )


def decompose_paths(
    schedule: TransferSchedule, request: TransferRequest
) -> List[TimedPath]:
    """Decompose one file's schedule into timed paths.

    Requires a store-and-forward schedule that fully delivers the file
    (raises :class:`SchedulingError` otherwise).  The returned volumes
    sum to the file size; at most ``#arcs`` paths are produced.  Waiting
    is implied: every path starts at ``(source, release)``, and a node
    with no transmission out at slot ``n`` steps to ``n + 1`` as a
    storage step.
    """
    residual: Dict[Tuple[TimeNode, TimeNode], float] = {}
    for entry in schedule.entries_for_request(request.request_id):
        key = ((entry.src, entry.slot), (entry.dst, entry.slot + 1))
        residual[key] = residual.get(key, 0.0) + entry.volume

    total = schedule.delivered_volume(request)
    if abs(total - request.size_gb) > max(1e-5, 1e-5 * request.size_gb):
        raise SchedulingError(
            f"cannot decompose: file {request.request_id} is not fully "
            f"delivered ({total:g} of {request.size_gb:g} GB)"
        )
    last = max((tail[1] for tail, _ in residual), default=request.release_slot)

    paths: List[TimedPath] = []
    remaining = total
    tol = max(VOLUME_ATOL, 1e-9 * request.size_gb)
    guard = 2 * len(residual) + 2
    while remaining > tol and guard > 0:
        guard -= 1
        node = (request.source, request.release_slot)
        path = [node]
        arcs_taken: List[Tuple[TimeNode, TimeNode]] = []
        # Walk until the volume first touches the destination; what
        # waits there afterwards is delivered, not part of the path.
        while node[0] != request.destination:
            candidates = [
                arc for arc, volume in residual.items()
                if arc[0] == node and volume > VOLUME_ATOL
            ]
            if candidates:
                # The fattest transmission (fewer total paths).
                arc = max(candidates, key=lambda arc: residual[arc])
                arcs_taken.append(arc)
                node = arc[1]
            elif node[1] < last:
                node = (node[0], node[1] + 1)  # wait a slot
            else:
                raise SchedulingError(
                    f"decomposition dead-ends at {node} for file "
                    f"{request.request_id}"
                )
            path.append(node)
        bottleneck = min(residual[arc] for arc in arcs_taken)
        volume = min(bottleneck, remaining)
        for arc in arcs_taken:
            residual[arc] -= volume
        paths.append(TimedPath(tuple(path), volume))
        remaining -= volume

    if remaining > max(1e-4, 1e-6 * request.size_gb):
        raise SchedulingError(
            f"decomposition left {remaining:g} GB of file "
            f"{request.request_id} unexplained"
        )
    return paths
