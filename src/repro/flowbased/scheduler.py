"""The flow-based online scheduler (the paper's comparison point)."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SchedulingError
from repro.core.interfaces import ON_INFEASIBLE_RAISE, Scheduler, SlotPlan
from repro.core.schedule import TransferSchedule
from repro.flowbased.model import build_flow_model
from repro.flowbased.two_phase import solve_two_phase
from repro.net.topology import Topology
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest

VARIANT_LP = "lp"
VARIANT_TWO_PHASE = "two_phase"


class FlowBasedScheduler(Scheduler):
    """Routes each slot's files as constant-rate multipath flows.

    ``variant`` selects the exact LP (``"lp"``) or the paper's two-phase
    decomposition (``"two_phase"``).  Infeasibility handling mirrors
    :class:`~repro.core.scheduler.PostcardScheduler`.
    """

    name = "flow-based"

    def __init__(
        self,
        topology: Topology,
        horizon: int,
        variant: str = VARIANT_LP,
        on_infeasible: str = ON_INFEASIBLE_RAISE,
    ):
        if variant not in (VARIANT_LP, VARIANT_TWO_PHASE):
            raise SchedulingError(f"unknown flow-based variant {variant!r}")
        super().__init__(topology, horizon, on_infeasible)
        self.variant = variant
        self.last_objective: Optional[float] = None
        #: lambda of the last two-phase solve (None for the LP variant).
        self.last_lambda: Optional[float] = None

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        return self._shed(self._solve, requests)

    def _solve(self, requests: List[TransferRequest]) -> TransferSchedule:
        with obs.span("scheduler.solve", scheduler=self.name,
                      variant=self.variant, requests=len(requests)):
            if self.variant == VARIANT_LP:
                with obs.span("scheduler.build_model"):
                    built = build_flow_model(self._state, requests)
                schedule, solution = built.solve()
                self.last_objective = solution.objective
                self.last_lambda = None
            else:
                schedule, lam, phase2_cost = solve_two_phase(self._state, requests)
                self.last_objective = phase2_cost
                self.last_lambda = lam
        return schedule
