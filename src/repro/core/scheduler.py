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

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

from repro.errors import InfeasibleError
from repro.core.formulation import STORAGE_FULL, ArcSet, build_postcard_model
from repro.core.interfaces import (  # the constants are re-exported here
    ON_INFEASIBLE_DROP,
    ON_INFEASIBLE_RAISE,
    Scheduler,
)
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.lp.backends.highs import IPM_COLUMNS
from repro.net.topology import Topology
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


def shed_until_feasible(solve_fn, requests, state, on_infeasible=ON_INFEASIBLE_DROP):
    """Drop files until ``solve_fn(accepted)`` succeeds.

    Two-stage policy shared by all optimizing schedulers (under the
    ``"raise"`` policy the first :class:`InfeasibleError` propagates):

    1. Files that are infeasible *alone* (e.g. a deadline shorter than
       any admissible path) are dropped first — no amount of shedding
       other traffic can save them.
    2. If the set is still jointly infeasible (congestion), shed the
       most capacity-hungry file (largest desired rate, ties by size)
       one at a time.

    Dropped files are recorded via ``state.reject``.  Returns
    ``(schedule_or_None, accepted)``; ``None`` means everything was
    shed.
    """
    accepted = list(requests)
    try:
        return solve_fn(accepted), accepted
    except InfeasibleError:
        if on_infeasible == ON_INFEASIBLE_RAISE:
            raise

    lonely_feasible = []
    for request in accepted:
        try:
            solve_fn([request])
            lonely_feasible.append(request)
        except InfeasibleError:
            state.reject(request)
    accepted = lonely_feasible

    while accepted:
        try:
            return solve_fn(accepted), accepted
        except InfeasibleError:
            victim = max(accepted, key=lambda r: (r.desired_rate, r.size_gb))
            accepted.remove(victim)
            state.reject(victim)
    return None, []


@dataclass
class LpPlan:
    """A solved-but-uncommitted slot: the LP's output, state untouched.

    Produced by :meth:`PostcardScheduler.plan_slot`, applied by
    :meth:`PostcardScheduler.commit_plan`.  The split exists for the
    solver watchdog (PR 7): the solve — the part that can hang — runs
    with zero state mutation, so a timed-out solve can be abandoned
    without leaving half a slot in the ledger; the commit is cheap and
    runs only on the winning path.
    """

    slot: int
    schedule: Optional[TransferSchedule]
    accepted: List[TransferRequest] = field(default_factory=list)
    rejected: List[TransferRequest] = field(default_factory=list)


class _RejectRecorder:
    """A ``state.reject``-shaped shim that only collects (plan phase)."""

    def __init__(self) -> None:
        self.rejected: List[TransferRequest] = []

    def reject(self, request: TransferRequest) -> None:
        self.rejected.append(request)


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
        self.on_infeasible = self._checked_policy(on_infeasible)
        self._state = NetworkState(topology, horizon)
        self.storage = storage
        self.storage_capacity = storage_capacity
        self.storage_price = storage_price
        self.cost_fn_factory = cost_fn_factory
        #: objective value of the last solved slot (cost per interval).
        self.last_objective: Optional[float] = None
        #: Optional :class:`~repro.forecast.provider.ForecastProvider`;
        #: when active, its predictions join the committed volume in
        #: the LP's charge rows (never the capacity rows).
        self.forecast = None
        #: Slots whose pruned model was infeasible (see :meth:`plan_slot`).
        self.widened = 0

    @property
    def state(self) -> NetworkState:
        return self._state

    def on_slot(self, slot: int, requests: List[TransferRequest]) -> TransferSchedule:
        if not requests:
            return TransferSchedule()
        return self.commit_plan(self.plan_slot(slot, requests))

    def plan_slot(
        self, slot: int, requests: List[TransferRequest],
        arc_sets: Optional[Sequence[Optional[ArcSet]]] = None,
        transit_price: float = 0.0,
    ) -> LpPlan:
        """Solve the slot without committing anything.

        Pure with respect to :class:`NetworkState`: rejections decided
        by the shedding policy are *collected* on the plan, not
        recorded.  Apply the result with :meth:`commit_plan`, or drop it
        on the floor — e.g. when the solver watchdog times the slot out
        — and the ledger never knows the solve happened.

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
        self._check_released_at(slot, requests)
        recorder = _RejectRecorder()
        kept, recorder.rejected = self._split_negligible(requests)
        if recorder.rejected:
            arc_sets = arc_sets and [
                arcs for request, arcs in zip(requests, arc_sets)
                if request.size_gb > VOLUME_ATOL
            ]
            requests = kept
            if not requests:
                return LpPlan(slot, None, [], recorder.rejected)
        pruned = bool(arc_sets) and any(arc_sets)
        solve = partial(self._solve, transit_price=transit_price if pruned else 0.0)
        if pruned:
            try:
                return LpPlan(slot, solve(requests, arc_sets), list(requests), recorder.rejected)
            except InfeasibleError:
                self.widened += 1
                obs.counter("hybrid.lp_widened", slot=slot)
        schedule, accepted = shed_until_feasible(
            solve, requests, recorder, self.on_infeasible
        )
        return LpPlan(slot, schedule, accepted, recorder.rejected)

    def commit_plan(self, plan: LpPlan) -> TransferSchedule:
        """Apply an :class:`LpPlan`: record rejections, commit the rest."""
        for request in plan.rejected:
            self._state.reject(request)
        if plan.schedule is None:
            return TransferSchedule()
        self._state.commit(plan.schedule, plan.accepted)
        return plan.schedule

    def _solve(self, requests, arc_sets=None, transit_price=0.0) -> TransferSchedule:
        with obs.span("scheduler.solve", scheduler=self.name,
                      requests=len(requests)):
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
