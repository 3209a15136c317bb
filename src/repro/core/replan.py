"""Replanning Postcard: in-flight transfers are re-optimized every slot.

The paper's online model commits a file's entire future schedule the
moment it arrives ("all routing paths and flow assignments for previous
traffic pairs are already known").  That makes each slot's LP small,
but early commitments can strand later arrivals.  This module
implements the natural relaxation: only the *current* slot's traffic is
ever executed; everything not yet transmitted — including data already
parked at intermediate datacenters — is re-optimized jointly with each
new batch.

Formally, at slot ``t`` every active file ``k`` is described by its
remaining volume distribution: ``supplies[i]`` GB currently sitting at
datacenter ``i`` (its source, and/or intermediate nodes where earlier
slots parked it).  The LP is the Sec. V formulation
(:mod:`repro.core.flowlp`); what this module owns is its multi-source
supplies at layer ``t``, each file's demand at its deadline layer, and
the peaks it prices against (this charging period's history, or the
recovery layer's hooks).  Only the ``n = t`` arcs of the solution are
executed, and the rest is thrown away and re-derived next slot.

Feasibility is monotone: the tail of last slot's plan is always still
feasible (capacities ahead are untouched), so replanning can only help
— at the price of solving a bigger LP every slot.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.flowlp import (
    Users, add_balance_rows, add_capacity_rows, add_charge_rows, add_flows,
    flow_schedule,
)
from repro.core.interfaces import Scheduler, SlotPlan
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.lp import LPBuilder, solve_lp
from repro.net.topology import Topology
from repro.obs import registry as obs
from repro.timeexp.graph import Arc, TimeExpandedGraph
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


@dataclass
class ActiveFile:
    """An accepted file that has not finished arriving yet."""

    request: TransferRequest
    #: Where its undelivered data currently sits: node -> GB.
    supplies: Dict[int, float] = field(default_factory=dict)
    #: GB already delivered to the destination.
    delivered: float = 0.0

    @property
    def remaining(self) -> float:
        return sum(self.supplies.values())

    @property
    def deadline_slot(self) -> int:
        return self.request.last_slot


def solve_multisource_plan(
    state: NetworkState,
    slot: int,
    files: List[ActiveFile],
    capacity_fn=None,
    history_peak_fn=None,
    committed_fn=None,
    model_name: str = "replan",
) -> Tuple[Dict[Tuple[int, Arc], float], float]:
    """The Sec. V formulation with multi-source supply nodes.

    Plans all remaining volume of ``files`` from slot ``slot`` onwards:
    each file's data may start from several datacenters at once (its
    ``supplies`` distribution), and everything must reach the file's
    destination by its own deadline.  Returns ``(plan, objective)``
    where ``plan`` maps ``(request_id, arc)`` to planned GB.

    The three hooks select between the two users of this formulation:

    * The replanning scheduler re-derives *everything* each slot, so
      future capacities are raw link capacities (``capacity_fn=None``)
      and nothing else is committed (``committed_fn=None``); the paid
      peaks are what this charging period executed before ``slot``
      (``history_peak_fn=None``).
    * :class:`repro.sim.recovery.RecoveryManager` replans a disrupted
      file *around* other files' still-valid commitments, so it passes
      residual capacities and the committed per-slot loads, and prices
      against the already-paid peaks (``history_peak_fn``).
    """
    if not files:
        return {}, 0.0

    if capacity_fn is None:

        def capacity_fn(src: int, dst: int, n: int) -> float:
            if (
                state.fault_model is not None
                and state.fault_model.is_visible_down(src, dst, n)
            ):
                return 0.0
            return state.topology.link(src, dst).capacity

    if history_peak_fn is None:

        def history_peak_fn(src: int, dst: int) -> float:
            return state.ledger.peak_in_range(
                src, dst, state.period_start, max(slot, 1)
            )

    end = max(f.deadline_slot for f in files) + 1
    graph = TimeExpandedGraph(
        state.topology, start_slot=slot, horizon=end - slot, capacity_fn=capacity_fn
    )

    lp = LPBuilder(model_name)
    flow_vars: Dict[Tuple[int, Arc], int] = {}
    users: Users = defaultdict(list)

    for f in files:
        rid = f.request.request_id
        window_last = f.deadline_slot
        columns, balance = add_flows(
            lp, rid,
            (a for a in graph.arcs if slot <= a.slot <= window_last), users,
        )
        flow_vars.update(((rid, arc), var) for arc, var in columns.items())
        sink = (f.request.destination, window_last + 1)
        add_balance_rows(lp, balance, lambda node: (
            f.supplies.get(node[0], 0.0) if node[1] == slot
            else -f.remaining if node == sink else 0.0
        ))

    add_capacity_rows(lp, users)
    # History peaks are paid; the plan's per-slot loads — stacked on
    # whatever is already committed there — set the new peaks.
    charged, prices, fixed_cost = add_charge_rows(
        lp, state.topology, users, history_peak_fn, committed_fn
    )
    lp.objective(charged, prices, fixed_cost)
    solution = solve_lp(lp.compile())
    plan = {key: volume for key, var in flow_vars.items()
            if (volume := float(solution.x[var])) > VOLUME_ATOL}
    return plan, solution.objective


class ReplanningPostcardScheduler(Scheduler):
    """Executes one slot at a time, re-deriving the rest every slot."""

    name = "postcard-replan"
    plan_replays = False  # a slot moves the files of earlier batches too

    def __init__(
        self,
        topology: Topology,
        horizon: int,
        on_infeasible: str = "raise",
    ):
        super().__init__(topology, horizon, on_infeasible)
        self.active: List[ActiveFile] = []
        self.last_objective: Optional[float] = None

    # -- the online loop -------------------------------------------------

    def on_slot(self, slot: int, requests: List[TransferRequest]) -> TransferSchedule:
        """Every slot executes, an idle one included: the active files move on."""
        self._check_released_at(slot, requests)
        self.last_plan = self.plan_slot(slot, requests)
        return self.commit_plan(self.last_plan)

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        """Admission, then the slot's arcs of the joint plan.

        The current active set stays feasible by construction (last
        slot's plan tail is untouched), so only newcomers can break
        feasibility, and only they are shed; if all are, the active set
        is planned alone.
        """
        def attempt(subset):
            return self._solve(slot, self.active + [_fresh(r) for r in subset])

        plan = self._shed(attempt, requests)
        if not plan.accepted:
            plan.schedule = attempt([])
        return plan

    def _solve(self, slot: int, files: List[ActiveFile]) -> TransferSchedule:
        """Plan all remaining volume; the slot-``slot`` arcs of the plan."""
        if not files:
            return TransferSchedule()
        obs.counter("scheduler.replans")
        with obs.span("scheduler.replan", slot=slot, files=len(files)):
            plan, self.last_objective = solve_multisource_plan(
                self._state, slot, files
            )
        return flow_schedule(
            (rid, arc, volume) for (rid, arc), volume in plan.items() if arc.slot == slot
        )

    # -- surprise-failure recovery ------------------------------------------

    def resupply(
        self,
        request: "TransferRequest",
        supplies: Dict[int, float],
        delivered: float,
    ) -> None:
        """Execution-time disruption hook used by the recovery layer.

        A surprise outage voided some of this slot's executed arcs; the
        engine reconstructed where the file's undelivered data really
        sits.  Overwrite the scheduler's in-memory picture with that
        ground truth — the file re-enters the active set and the next
        slot's replan routes it around the (now revealed) outage.
        """
        for f in self.active:
            if f.request.request_id == request.request_id:
                f.supplies = dict(supplies)
                f.delivered = delivered
                break
        else:
            self.active.append(
                ActiveFile(request, supplies=dict(supplies), delivered=delivered)
            )
        # A completion recorded from the voided arcs is no longer true.
        self._state.completions.pop(request.request_id, None)

    # -- execution ----------------------------------------------------------

    def commit_plan(self, plan: SlotPlan) -> TransferSchedule:
        """Execute the plan's arcs (one slot's): the ledger records them,
        the accepted files join the active set, and every file's
        supplies move along."""
        for request in plan.rejected:
            self._state.reject(request)
        self.active.extend(_fresh(r) for r in plan.accepted)
        schedule = plan.schedule
        self._state.record_traffic(
            ((src, dst, slot), gb) for _, src, dst, slot, gb in schedule.entries
        )
        moved: Dict[int, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        at: Dict[int, int] = {}
        for rid, src, dst, slot, volume in schedule.entries:
            moved[rid][src] -= volume
            moved[rid][dst] += volume
            at[rid] = slot

        by_id = {f.request.request_id: f for f in self.active}
        for rid, deltas in moved.items():
            f = by_id[rid]
            for node, delta in deltas.items():
                if node == f.request.destination and delta > 0:
                    f.delivered += delta
                else:
                    f.supplies[node] = f.supplies.get(node, 0.0) + delta
            f.supplies = {
                node: volume
                for node, volume in f.supplies.items()
                if volume > VOLUME_ATOL
            }
            if f.remaining <= max(VOLUME_ATOL, 1e-9 * f.request.size_gb):
                self._state.completions[rid] = at[rid]
            self._state.storage_used += sum(f.supplies.values())
        self.active = [f for f in self.active if f.remaining > VOLUME_ATOL]
        return schedule


def _fresh(request: TransferRequest) -> ActiveFile:
    """A newly released file: all of it still at its source."""
    return ActiveFile(request, supplies={request.source: request.size_gb})
