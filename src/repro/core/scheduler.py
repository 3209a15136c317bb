"""The online Postcard controller.

Implements the paper's per-slot optimization (Secs. IV-V): at each
slot ``t`` the newly released files ``K(t)`` are routed and scheduled
jointly by one LP over the time-expanded graph, minimizing the
increase of the charged volumes ``X_ij`` on top of everything already
committed.

The LP is assembled directly as the matrices HiGHS reads — no graph,
no model objects.  :class:`~repro.heuristic.hybrid.HybridScheduler`
uses this scheduler as its escalation lane and hands it per-file arc
sets (see :meth:`PostcardScheduler.plan_slot`).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

from repro.errors import InfeasibleError
from repro.core.formulation import STORAGE_FULL, ArcSet, build_postcard_model
from repro.core.interfaces import (  # the constants and the shedding are re-exported here
    ON_INFEASIBLE_DROP,
    ON_INFEASIBLE_RAISE,
    Scheduler,
    SlotPlan,
    shed_until_feasible,
)
from repro.core.schedule import TransferSchedule
from repro.lp.compile import IPM_COLUMNS
from repro.net.topology import Topology
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


class PostcardScheduler(Scheduler):
    """Runs the Sec. V optimization every slot and commits the result.

    Parameters
    ----------
    topology:
        The inter-datacenter network.
    horizon:
        Number of slots in the charging period (for billing).
    storage:
        ``"full"`` or ``"destination_only"`` (ablation; see
        :func:`~repro.core.formulation.build_postcard_model`).
    on_infeasible:
        ``"raise"`` propagates :class:`InfeasibleError`;  ``"drop"``
        greedily rejects the most capacity-hungry files (largest
        ``size/deadline``) until the rest fit, recording rejects in
        ``state.rejected``.
    """

    name = "postcard"

    def __init__(
        self,
        topology: Topology,
        horizon: int,
        storage: str = STORAGE_FULL,
        on_infeasible: str = ON_INFEASIBLE_RAISE,
        storage_capacity: float = float("inf"),
        storage_price: float = 0.0,
        cost_fn_factory=None,
    ):
        super().__init__(topology, horizon, on_infeasible)
        self.storage = storage
        self.storage_capacity = storage_capacity
        self.storage_price = storage_price
        self.cost_fn_factory = cost_fn_factory
        #: objective value of the last solved slot (cost per interval).
        self.last_objective: Optional[float] = None
        #: Slots whose pruned model was infeasible (see :meth:`plan_slot`).
        self.widened = 0

    def plan_slot(
        self, slot: int, requests: List[TransferRequest],
        arc_sets: Optional[Sequence[Optional[ArcSet]]] = None,
        transit_price: float = 0.0,
    ) -> SlotPlan:
        """Solve the slot without committing anything.

        Rejections decided by the shedding policy are *collected* on the
        plan, not recorded.  Apply the result with :meth:`commit_plan`,
        or drop it on the floor — e.g. when the solver watchdog times the
        slot out — and the ledger never knows the solve happened.

        ``arc_sets`` (one per request, see :func:`build_postcard_model`)
        prunes the model under one rule, **widen before shed**: an
        infeasible pruned batch is solved once more on the full model
        and shedding only ever runs there, so from a given state no file
        is refused that the full model would admit.  ``transit_price``
        (:func:`build_postcard_model`) enters every solve of a pruned slot
        (an unpruned one is the paper's model); with the optimum so chosen,
        the pruned attempt skips presolve below the interior-point switch.

        A file of at most ``VOLUME_ATOL`` GB is refused before any solve:
        its flow would read back as nothing delivered.
        """
        kept, refused = self._split_negligible(requests)
        if refused:
            arc_sets = arc_sets and [
                arcs for request, arcs in zip(requests, arc_sets)
                if request.size_gb > VOLUME_ATOL
            ]
            requests = kept
        pruned = bool(arc_sets) and any(arc_sets)
        solve = partial(self._solve, transit_price=transit_price if pruned else 0.0)
        if pruned:
            try:
                return SlotPlan(solve(requests, arc_sets), list(requests), refused)
            except InfeasibleError:
                self.widened += 1
                obs.counter("hybrid.lp_widened", slot=slot)
        return shed_until_feasible(solve, requests, self.on_infeasible, refused)

    def _solve(self, requests, arc_sets=None, transit_price=0.0) -> TransferSchedule:
        with obs.span("scheduler.solve", scheduler=self.name,
                      requests=len(requests)):
            # An active forecast's predictions join the committed volume
            # in the charge rows (never the capacity rows).
            forecast = self.forecast
            predicted_volume_fn = None
            if forecast is not None and forecast.active:
                predicted_volume_fn = forecast.predicted_volume
            with obs.span("scheduler.build_model"):
                built = build_postcard_model(
                    self._state,
                    requests,
                    storage=self.storage,
                    storage_capacity=self.storage_capacity,
                    storage_price=self.storage_price,
                    transit_price=transit_price,
                    cost_fn_factory=self.cost_fn_factory,
                    predicted_volume_fn=predicted_volume_fn,
                    arc_sets=arc_sets,
                )
            # Widened and shedding solves keep presolve: it finds infeasibility fast.
            off = arc_sets and transit_price and built.num_variables <= IPM_COLUMNS
            schedule, solution = built.solve(presolve="off" if off else "on")
        self.last_objective = solution.objective
        return schedule
