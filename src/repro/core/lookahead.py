"""Postcard with arrival lookahead.

The pure online controller is myopic: it happily fills cheap links to
the brim even when the next slot's files will then be forced onto
expensive ones.  When arrivals are predictable a few slots out (the
paper's Sec. III cites Benson et al. that *fine-grained* prediction
fails beyond seconds, but bulk/backup traffic is often scheduled and
therefore known), a lookahead controller co-optimizes the current
files with the next ``W`` slots' previewed files and commits only the
current slot's decisions.

With ``W = 0`` this is exactly :class:`PostcardScheduler`'s behavior;
with ``W`` covering the whole run it approaches the offline optimum.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import InfeasibleError, SchedulingError
from repro.core.formulation import STORAGE_FULL, build_postcard_model
from repro.core.interfaces import ON_INFEASIBLE_RAISE, Scheduler, SlotPlan
from repro.core.schedule import TransferSchedule
from repro.net.topology import Topology
from repro.traffic.spec import TransferRequest

#: A preview oracle: slot index -> the files that will be released then.
PreviewFn = Callable[[int], List[TransferRequest]]


class LookaheadPostcardScheduler(Scheduler):
    """Online Postcard that previews the next ``lookahead`` slots.

    ``preview`` is typically ``workload.requests_at`` — the simulator's
    workloads are deterministic per slot, so the preview is a perfect
    oracle; plugging in a noisy predictor measures robustness instead.
    """

    name = "postcard-lookahead"

    def __init__(
        self,
        topology: Topology,
        horizon: int,
        preview: PreviewFn,
        lookahead: int = 2,
        storage: str = STORAGE_FULL,
        on_infeasible: str = ON_INFEASIBLE_RAISE,
    ):
        if lookahead < 0:
            raise SchedulingError(f"lookahead must be >= 0, got {lookahead}")
        super().__init__(topology, horizon, on_infeasible)
        self.preview = preview
        self.lookahead = lookahead
        self.storage = storage
        self.last_objective: Optional[float] = None

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        ahead = range(1, self.lookahead + 1) if requests else ()  # idle: nothing to preview
        future = [request for n in ahead for request in self.preview(slot + n)]
        return self._shed(lambda current: self._solve(current, future), requests)

    def _solve(
        self, current: List[TransferRequest], future: List[TransferRequest]
    ) -> TransferSchedule:
        """Co-optimize current + previewed files; keep only current
        files' entries (future files are re-solved at their own slot,
        when they are real)."""
        try:
            built = build_postcard_model(
                self._state, current + future, storage=self.storage
            )
            schedule, solution = built.solve()
        except InfeasibleError:
            if not future:
                raise
            # The previewed future may be jointly infeasible with the
            # present (it will be shed at its own slot); fall back to
            # the myopic solve rather than dropping *current* files.
            built = build_postcard_model(self._state, current, storage=self.storage)
            schedule, solution = built.solve()
            self.last_objective = solution.objective
            return schedule

        self.last_objective = solution.objective
        current_ids = {r.request_id for r in current}
        return TransferSchedule(
            [e for e in schedule.entries if e.request_id in current_ids]
        )
