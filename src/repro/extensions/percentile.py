"""A percentile-aware extension of the Postcard scheduler.

The paper fixes q = 100 for tractability: under peak billing, every
slot's volume matters and the max-epigraph objective is exact.  Real
ISPs bill the 95-th percentile, under which the busiest
``(1 - q/100) * horizon`` slots of each link are *free* — an optimizer
that knows this can deliberately burst a few times per period at no
cost.  Exact q-percentile optimization is non-convex (choosing which
slots to sacrifice is combinatorial), so this module implements the
natural greedy heuristic on top of the Postcard LP:

* each link has a *burst budget* of ``floor((1 - q/100) * horizon)``
  slots for the charging period;
* the charged volume fed to the LP excludes already-amnestied slots;
* per round, the LP is solved once, and if a link's bill rose, its
  peak slot of this round is amnestied (budget permitting) and the LP
  re-solved once with that slot's charge row removed.

With q = 100 the budget is zero and the scheduler is exactly
:class:`~repro.core.scheduler.PostcardScheduler`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SchedulingError
from repro.core.formulation import build_postcard_model
from repro.core.interfaces import ON_INFEASIBLE_RAISE, Scheduler, SlotPlan
from repro.core.schedule import TransferSchedule
from repro.net.topology import LinkKey, Topology
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

#: Burst slots amnestied by one solve, per link.
Grants = Dict[LinkKey, Set[int]]


class PercentileAwareScheduler(Scheduler):
    """Online Postcard that spends each link's free burst slots."""

    name = "postcard-percentile"

    def __init__(
        self,
        topology: Topology,
        horizon: int,
        q: float = 95.0,
        on_infeasible: str = ON_INFEASIBLE_RAISE,
    ):
        if not 0 < q <= 100:
            raise SchedulingError(f"percentile must be in (0, 100], got {q}")
        super().__init__(topology, horizon, on_infeasible)
        self.q = float(q)
        #: Free burst slots per link for the whole charging period:
        #: exactly the samples strictly above the charged index of the
        #: q-th percentile scheme (matches the ledger's billing).
        from repro.units import percentile_slot_index

        self.burst_budget = horizon - 1 - percentile_slot_index(q, horizon)
        #: Amnestied (free) slots per link.
        self.amnesty: Dict[LinkKey, Set[int]] = defaultdict(set)
        self.last_objective: Optional[float] = None
        #: The last solve's schedule and grants (see :meth:`plan_slot`).
        self._solved: Tuple[Optional[TransferSchedule], Grants] = (None, {})

    # -- accounting that ignores amnestied slots ------------------------

    def effective_charged_volume(
        self, src: int, dst: int, amnesty: Optional[Grants] = None
    ) -> float:
        """Peak recorded volume over non-amnestied slots of (src, dst)
        (``amnesty``: a plan's, the committed one by default)."""
        usage = self._state.ledger._usage[(src, dst)]
        free = (self.amnesty if amnesty is None else amnesty).get((src, dst), ())
        return max(
            (v for slot, v in usage.volumes.items() if slot not in free),
            default=0.0,
        )

    def remaining_budget(self, src: int, dst: int) -> int:
        return self.burst_budget - len(self.amnesty.get((src, dst), ()))

    # -- the online loop ----------------------------------------------------

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        """Plan against the amnesty plus each solve's own grants: only the
        grants of the solve whose schedule the plan returns ride it, to land
        with :meth:`commit_plan` (a shedding probe's go with its schedule)."""
        self._solved = (None, {})
        plan = self._shed(self._solve_with_amnesty, requests)
        solved, grants = self._solved
        plan.grants = grants if solved is plan.schedule else {}
        return plan

    def commit_plan(self, plan: SlotPlan) -> TransferSchedule:
        """Land the plan, then the burst slots its solve amnestied."""
        schedule = super().commit_plan(plan)
        for key, slots in plan.grants.items():
            self.amnesty[key] |= slots
        return schedule

    def _solve_once(self, requests: List[TransferRequest], grants: Grants):
        free = dict(self.amnesty)
        for key, slots in grants.items():
            free[key] = free.get(key, set()) | slots
        built = build_postcard_model(
            self._state,
            requests,
            charge_exempt=lambda s, d, n: n in free.get((s, d), ()),
            charged_volume_fn=lambda s, d: self.effective_charged_volume(s, d, free),
        )
        return built.solve()

    def _solve_with_amnesty(
        self, requests: List[TransferRequest]
    ) -> TransferSchedule:
        schedule, solution = self._solve_once(requests, {})
        self.last_objective = solution.objective

        # Did any link's (effective) bill rise?  If so, amnesty its
        # peak slot of this round and re-solve once.
        grants: Grants = {}
        loads: Dict[Tuple[LinkKey, int], float] = defaultdict(float)
        for (src, dst, n), volume in schedule.link_slot_volumes().items():
            loads[((src, dst), n)] += volume
        peak_by_link: Dict[LinkKey, Tuple[float, int]] = {}
        for (key, n), volume in loads.items():
            total = volume + self._state.committed_volume(key[0], key[1], n)
            if key not in peak_by_link or total > peak_by_link[key][0]:
                peak_by_link[key] = (total, n)
        for key, (total, n) in peak_by_link.items():
            if (
                total > self.effective_charged_volume(*key) + VOLUME_ATOL
                and self.remaining_budget(*key) > 0
                and n not in self.amnesty.get(key, ())
            ):
                grants[key] = {n}

        if grants:
            schedule, solution = self._solve_once(requests, grants)
            self.last_objective = solution.objective
        self._solved = (schedule, grants)
        return schedule
