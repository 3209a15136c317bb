"""The direct-link baseline: Fig. 1(a)'s "no routing or scheduling".

Each file is sent on the direct overlay link from its source to its
destination at its desired rate ``F_k / T_k`` — evenly spread over the
deadline window, with no relaying, no splitting and no storage.  If the
direct link lacks residual capacity the file is front-loaded as much as
the link allows (and rejected if even that cannot finish on time).
"""

from __future__ import annotations

from typing import List

from repro.errors import InfeasibleError
from repro.core.interfaces import ON_INFEASIBLE_RAISE, Scheduler
from repro.core.schedule import SEMANTICS_FLUID, ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.net.topology import Topology
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


class DirectScheduler(Scheduler):
    """Ship every file on its direct link at the minimum tolerable rate."""

    name = "direct"

    def __init__(
        self,
        topology: Topology,
        horizon: int,
        on_infeasible: str = ON_INFEASIBLE_RAISE,
    ):
        self.on_infeasible = self._checked_policy(on_infeasible)
        self._state = NetworkState(topology, horizon)

    @property
    def state(self) -> NetworkState:
        return self._state

    def on_slot(self, slot: int, requests: List[TransferRequest]) -> TransferSchedule:
        self._check_released_at(slot, requests)
        requests = self._refuse_negligible(requests)
        committed_entries: List[ScheduleEntry] = []
        committed_requests: List[TransferRequest] = []
        for request in sorted(requests, key=lambda r: -r.desired_rate):
            try:
                entries = self._plan_one(request)
            except InfeasibleError:
                if self.on_infeasible == ON_INFEASIBLE_RAISE:
                    raise
                self._state.reject(request)
                continue
            schedule = TransferSchedule(entries, semantics=SEMANTICS_FLUID)
            self._state.commit(schedule, [request])
            committed_entries.extend(schedule.entries)
            committed_requests.append(request)
        return TransferSchedule(committed_entries, semantics=SEMANTICS_FLUID)

    def _plan_one(self, request: TransferRequest) -> List[ScheduleEntry]:
        src, dst = request.source, request.destination
        if not self._state.topology.has_link(src, dst):
            raise InfeasibleError(
                f"no direct link ({src},{dst}) for file {request.request_id}"
            )
        window = range(request.release_slot, request.last_slot + 1)
        rate = request.desired_rate
        residuals = {n: self._state.residual_capacity(src, dst, n) for n in window}

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
