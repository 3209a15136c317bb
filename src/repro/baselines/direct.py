"""The direct-link baseline: Fig. 1(a)'s "no routing or scheduling".

Each file is sent on the direct overlay link from its source to its
destination at its desired rate ``F_k / T_k`` — evenly spread over the
deadline window, with no relaying, no splitting and no storage.  If the
direct link lacks residual capacity the file is front-loaded as much as
the link allows (and rejected if even that cannot finish on time).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import InfeasibleError
from repro.core.interfaces import Scheduler, SlotPlan
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


class DirectScheduler(Scheduler):
    """Ship every file on its direct link at the minimum tolerable rate."""

    name = "direct"

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        """Plan the files largest desired rate first, each against the
        volume the ones before it take; the slot lands file by file."""
        requests, refused = self._split_negligible(requests)
        plan = SlotPlan(rejected=refused, per_file=True)
        taken: Dict[Tuple[int, int, int], float] = {}
        entries: List[ScheduleEntry] = []
        for request in sorted(requests, key=lambda r: -r.desired_rate):
            try:
                placed = self._plan_one(request, taken)
            except InfeasibleError:
                plan.rejected.append(request)
                continue
            for _, src, dst, n, volume in placed:
                if volume > VOLUME_ATOL:  # what the schedule keeps
                    cell = (src, dst, n)
                    level = taken.get(cell)
                    if level is None:
                        level = self._state.committed_volume(src, dst, n)
                    taken[cell] = level + volume
            plan.accepted.append(request)
            entries += placed
        plan.schedule = TransferSchedule(entries, semantics=SEMANTICS_FLUID)
        return plan

    def _plan_one(
        self, request: TransferRequest, taken: Dict[Tuple[int, int, int], float]
    ) -> List[ScheduleEntry]:
        """``taken`` holds the committed volume of the cells this slot's
        earlier files already use, as their commit will record it."""
        src, dst = request.source, request.destination
        if not self._state.topology.has_link(src, dst):
            raise InfeasibleError(
                f"no direct link ({src},{dst}) for file {request.request_id}"
            )
        window = range(request.release_slot, request.last_slot + 1)
        rate = request.desired_rate
        capacity = self._state.topology.link(src, dst).capacity
        residuals = {
            n: max(0.0, capacity - taken[(src, dst, n)]) if (src, dst, n) in taken
            else self._state.residual_capacity(src, dst, n)
            for n in window
        }

        if all(residuals[n] >= rate - VOLUME_ATOL for n in window):
            return [
                ScheduleEntry(request.request_id, src, dst, n, rate)
                for n in window
            ]

        # Even spreading does not fit: front-load greedily.
        remaining = request.size_gb
        entries = []
        for n in window:
            volume = min(remaining, residuals[n])
            if volume > VOLUME_ATOL:
                entries.append(ScheduleEntry(request.request_id, src, dst, n, volume))
                remaining -= volume
            if remaining <= VOLUME_ATOL:
                break
        if remaining > VOLUME_ATOL:
            raise InfeasibleError(
                f"direct link ({src},{dst}) cannot deliver file "
                f"{request.request_id} by its deadline"
            )
        return entries
