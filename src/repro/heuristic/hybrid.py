"""Hybrid scheduling: fast lane by default, LP under pressure.

Introduced in PR 4 (heuristic fast-lane scheduler).  The fast lane
admits and places requests in O(paths x window) per request but plans
one file at a time; the Postcard LP optimizes each slot's batch jointly
but costs an assembly + solve.  :class:`HybridScheduler` runs the fast
lane on every slot and **escalates** to the LP only when admission
pressure says the greedy placement is likely leaving money (or
admissions) on the table:

* a request fails the fast lane's admission test (a rejection the LP
  might still fit by repacking everyone jointly), or
* the planned batch pushes some link-slot's utilization above
  ``escalate_utilization`` (0.9: the fast lane's marginal-cost placement
  degrades exactly when links run hot).

Both lanes share one :class:`~repro.core.state.NetworkState` — one
ledger, one bill — so escalated slots see everything the fast lane
committed and vice versa.  The LP lane is a
:class:`~repro.core.scheduler.PostcardScheduler` fed from the fast
lane's :class:`~repro.heuristic.paths.CandidatePathIndex`: a file's LP
variables exist only on the arcs of the paths the index knows for it (so
the fast lane's plan stays a feasible point), a file the fast lane could
not place there keeps the paper's full subgraph, and a batch the pruned
model cannot fit is solved once more on the full model before anything
is shed (``hybrid.lp_widened``).  On a pruned slot it takes, of the
bill's optima, one with the fewest hop-GB, and so can skip presolve.  It
writes HiGHS's matrices straight from those arc sets and the ledger's
residual capacities — no time-expanded graph is built on an escalated
slot (:mod:`repro.core.formulation`).  A slot the LP does not answer
(solver error, watchdog timeout) commits the fast-lane plan that flagged
the pressure instead — ``degraded``; there is no second solver.

Escalations are observable: the ``hybrid.escalations`` /
``hybrid.fast_slots`` counters and the ``hybrid.escalate`` span stream
through :mod:`repro.obs`, and the simulation engine copies the tallies
onto :class:`~repro.sim.metrics.SimulationResult`.  One function decides a
slot (:meth:`HybridScheduler.plan_slot`) and names its lane in
``last_lane`` (``fast``, ``lp`` or ``degraded``), which the daemon
journals with the plan; :class:`~repro.core.interfaces.Scheduler` commits
the plan and runs an attached forecaster around it.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.errors import InfeasibleError, SchedulingError, SolverError, UnboundedError
from repro.core.interfaces import (
    ON_INFEASIBLE_DROP, ON_INFEASIBLE_RAISE, Scheduler, SlotPlan,
)
from repro.core.schedule import TransferSchedule
from repro.core.scheduler import PostcardScheduler
from repro.core.state import NetworkState
from repro.heuristic.fastlane import FastLaneScheduler
from repro.lp import compile as lp_compile
from repro.net.topology import Topology
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest

#: Escalation-worthy slots that skip the LP after a watchdog timeout,
#: doubling per consecutive timeout up to the cap.
WATCHDOG_BACKOFF_SLOTS = 2
WATCHDOG_BACKOFF_MAX = 16


class HybridScheduler(Scheduler):
    """Fast-lane heuristic with LP escalation on admission pressure.

    Parameters
    ----------
    topology, horizon:
        As for every scheduler.
    on_infeasible:
        Applied by the *LP* lane on escalated slots (``"raise"`` or
        ``"drop"``); the fast lane itself never drops — an
        inadmissible request triggers escalation instead, and a
        degraded slot records what the fast lane refused.
    num_candidate_paths:
        Fast-lane admission fan-out.
    watchdog_timeout_s:
        When positive, escalated solves run under a watchdog: the LP's
        *plan* phase (pure — no state mutation) executes on a worker
        thread, and if it has not answered within this budget the slot
        **degrades** to fast-lane-only placement so clients still get
        decisions within the tick.  0 (default) solves inline.  After a
        timeout, ``WATCHDOG_BACKOFF_SLOTS`` subsequent escalation-worthy
        slots skip the LP outright (doubling per consecutive timeout up
        to ``WATCHDOG_BACKOFF_MAX``), and the LP is additionally skipped
        while an abandoned solve is still running — its thread shares
        the arc-set template memos, so a new solve must not race it.  A
        successful escalation resets the backoff.
    escalate_hook:
        Called at the start of every escalated solve; the service's
        chaos harness injects stalls here.  ``None`` in production.
    """

    name = "hybrid"

    #: Escalate when the planned batch's peak link-slot utilization
    #: exceeds this fraction (a test may set it per instance).
    escalate_utilization = 0.9

    def __init__(
        self,
        topology: Topology,
        horizon: int,
        on_infeasible: str = ON_INFEASIBLE_RAISE,
        num_candidate_paths: int = 4,
        watchdog_timeout_s: float = 0.0,
        escalate_hook: Optional[Callable[[], None]] = None,
    ):
        if watchdog_timeout_s < 0.0:
            raise SchedulingError(
                f"watchdog_timeout_s must be non-negative, got {watchdog_timeout_s}"
            )
        self._lp = PostcardScheduler(topology, horizon, on_infeasible=on_infeasible)
        # The LP lane raises under "raise" before it returns a plan; the
        # plans this scheduler returns with refusals (degraded) record them.
        super().__init__(topology, horizon, ON_INFEASIBLE_DROP, state=self._lp.state)
        self._fast = FastLaneScheduler(
            topology, horizon, num_candidate_paths, ON_INFEASIBLE_DROP, self._state
        )
        self.watchdog_timeout_s = watchdog_timeout_s
        self._escalate_hook = escalate_hook or (lambda: None)
        #: The LP lane's price per GB-hop: a tie-break, 1e-4 of the cheapest link.
        prices = [link.price for link in topology.links if link.price > 0]
        self.transit_price = 1e-4 * min(prices, default=0.0)
        #: Slots handed to the LP because of admission pressure.
        self.escalations = 0
        #: Slots the fast lane handled end to end.
        self.fast_slots = 0
        #: Escalation-worthy slots the LP did not answer (timeout or solver error).
        self.degraded = 0
        #: Escalation-worthy slots forced fast-lane by backoff/zombie.
        self.lp_skipped = 0
        self._backoff_remaining = 0
        self._backoff_next = WATCHDOG_BACKOFF_SLOTS
        #: An abandoned (timed-out) solve still running; while alive,
        #: the LP lane is poisoned — the arc-set template memos may be
        #: mid-mutation on that thread.
        self._zombie: Optional[threading.Thread] = None

    def adopt_state(self, state: NetworkState) -> None:
        """Re-point both lanes at a restored state (checkpoint resume).

        The shared-ledger invariant must survive the swap: the LP lane
        and the fast lane (including its tracker) end up on the same
        restored :class:`NetworkState`.
        """
        super().adopt_state(state)
        self._lp.adopt_state(state)
        self._fast.adopt_state(state)
        if self.forecast is not None:
            # Predictor state (learned seasonals, accuracy windows)
            # survives the swap; only the capacity cache and link set
            # are refreshed from the restored topology.
            self.forecast.bind(state)

    @property
    def lp_widened(self) -> int:
        """Escalated slots the LP lane re-solved on the full arc set."""
        return self._lp.widened

    @property
    def fast_lane(self) -> FastLaneScheduler:
        return self._fast

    @property
    def lp_lane(self) -> PostcardScheduler:
        return self._lp

    def attach_forecast(self, provider) -> None:
        """Drive both lanes from ``provider``'s predictions.

        The fast lane gains the forecast-aware ALAP passes (reserved
        cells are tried last among otherwise-equal slots) and the LP
        lane adds predicted background volume to its charge rows.
        Admission is untouched in both lanes: the plain residual pass
        still runs, and LP capacity rows never see a reservation.
        """
        self.forecast = provider
        self._fast.attach_forecast(provider)
        self._lp.forecast = provider
        provider.bind(self._state)

    def commit_plan(self, plan: SlotPlan) -> TransferSchedule:
        """Commit through the lane that planned ``plan`` (the fast lane's
        plans are the ones that land file by file)."""
        return (self._fast if plan.per_file else self._lp).commit_plan(plan)

    # -- the decision ------------------------------------------------------

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        """The one decision of a slot; sets ``last_lane`` and commits nothing.

        1. The fast lane plans the slot.
        2. The pressure test picks the lane.
        3. Escalated, the LP lane plans it — the escalate hook first, under
           the watchdog when ``watchdog_timeout_s > 0`` — or, when the LP
           does not answer (backoff, timeout, solver error), the fast plan
           stands, *degraded*.
        """
        plan = self._fast.plan_slot(slot, requests)
        if not requests:  # idle: no lane decides it, and no tally moves
            return plan
        if not self._pressured(plan):
            self.last_lane = "fast"
            obs.counter("hybrid.fast_slots")
            self.fast_slots += 1
            with obs.span("hybrid.fastpath", slot=slot, files=len(requests),
                          peak_utilization=round(plan.peak_utilization, 4)):
                return plan

        self.last_lane = "degraded"  # until the LP answers
        watchdog = self.watchdog_timeout_s > 0
        if watchdog:
            zombie = self._zombie is not None and self._zombie.is_alive()
            if not zombie:
                self._zombie = None
            if self._backoff_remaining > 0 or zombie:
                if self._backoff_remaining > 0:
                    self._backoff_remaining -= 1
                self.lp_skipped += 1
                obs.counter("hybrid.lp_skipped", zombie=zombie)
                return self._degrade(slot, plan, reason="backoff")

        self.escalations += 1
        obs.counter("hybrid.escalations")
        with obs.span(
            "hybrid.escalate",
            slot=slot,
            rejections=len(plan.rejected),
            peak_utilization=round(plan.peak_utilization, 4),
        ):
            # On this thread: an abandoned solve must not share the index.
            arc_sets = self.arc_sets(requests, plan)
            outcome = {}

            def solve() -> None:
                try:
                    self._escalate_hook()
                    price = self.transit_price
                    outcome["plan"] = self._lp.plan_slot(slot, requests, arc_sets, price)
                except BaseException as exc:  # delivered to the caller
                    outcome["error"] = exc

            if not watchdog:
                solve()
            else:
                # The first escalation imports the solver here, off the clock.
                lp_compile.load_solver()
                worker = threading.Thread(
                    target=solve, name=f"lp-escalate-{slot}", daemon=True
                )
                worker.start()
                worker.join(self.watchdog_timeout_s)
                if worker.is_alive():
                    # Abandon the solve: it has touched no ledger state and
                    # its eventual result is discarded.  Poison the LP lane
                    # until the thread is reaped, arm the backoff window.
                    self._zombie = worker
                    self.degraded += 1
                    self._backoff_remaining = self._backoff_next
                    self._backoff_next = min(
                        self._backoff_next * 2, WATCHDOG_BACKOFF_MAX
                    )
                    return self._degrade(slot, plan, reason="timeout")
            error = outcome.get("error")
            if error is None:
                self._backoff_next = WATCHDOG_BACKOFF_SLOTS
                self.last_lane = "lp"
                return outcome["plan"]
            # Infeasible and unbounded are answers (plan_slot widens and sheds
            # itself) and stay the caller's, like any non-solver error; no
            # answer degrades like no answer in time, minus the backoff.
            if not isinstance(error, SolverError) or isinstance(
                error, (InfeasibleError, UnboundedError)
            ):
                raise error
            self.degraded += 1
            return self._degrade(slot, plan, reason="solver", error=str(error))

    def _pressured(self, plan: SlotPlan) -> bool:
        """Whether the fast lane's plan escalates: a rejection, or a
        link-slot planned above :attr:`escalate_utilization`."""
        return bool(plan.rejected) or plan.peak_utilization > self.escalate_utilization

    def arc_sets(self, requests, plan):
        """Per file, the arcs of every path the shared index knows for
        it; the full subgraph (``None``) for files the fast lane could
        not place on those very paths."""
        rejected = {request.request_id for request in plan.rejected}
        index, schedule = self._fast._paths, self._state.link_schedule
        return [
            None if request.request_id in rejected
            else index.arc_set(request, schedule)
            for request in requests
        ]

    @staticmethod
    def _degrade(slot: int, plan: SlotPlan, reason: str, **attrs) -> SlotPlan:
        """The fast plan, for an escalation-worthy slot the LP did not
        answer: it keeps every admissible request's deadline, and what
        it refused is rejected — paid visibly (``service.degraded``, the
        ``degraded_slots`` SLO), not by a stalled slot.  ``reason`` is
        ``timeout``, ``solver`` (it raised) or ``backoff`` (skipped)."""
        obs.counter("service.degraded", slot=slot, reason=reason)
        with obs.span("hybrid.degraded", slot=slot, reason=reason,
                      rejections=len(plan.rejected),
                      peak_utilization=round(plan.peak_utilization, 4), **attrs):
            return plan
