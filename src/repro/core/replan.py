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
(:func:`repro.core.formulation.build_postcard_model`) over the files
re-released at ``t``; what this module owns is their multi-source
supplies, written into the first layer's balance rows.  Only the
``n = t`` arcs of the solution are executed, and the rest is thrown away
and re-derived next slot.

Feasibility is monotone while links keep their promises: the tail of
last slot's plan is still feasible, so replanning can only help — at the
price of a bigger LP every slot.  A surprise outage can break that tail,
and the active files are then shed like newcomers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import astuple, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.formulation import PostcardModel, build_postcard_model
from repro.core.interfaces import Scheduler, SlotPlan, shed_until_feasible
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.lp import Solution, solve_lp
from repro.net.topology import Topology
from repro.obs import registry as obs
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


def solve_multisource_plan(
    state: NetworkState, slot: int, files: List[ActiveFile],
) -> Tuple[PostcardModel, Solution]:
    """The Sec. V formulation with multi-source supply nodes.

    Plans all remaining volume of ``files`` (at least one) from slot
    ``slot`` onwards: each file's data may start from several
    datacenters at once (its ``supplies`` distribution), and everything
    must reach the file's destination by its own deadline.  The plan
    runs around what ``state`` already holds: residual capacities,
    committed per-slot loads and the paid peaks.  For the replanning
    scheduler, which executes one slot at a time, those are the raw
    (window- and fault-gated) capacities and this period's executed
    peaks; :class:`repro.sim.recovery.RecoveryManager` replans a
    disrupted file around other files' still-valid commitments.
    """
    built = build_postcard_model(state, [
        replace(f.request, size_gb=f.remaining, release_slot=slot,
                deadline_slots=f.request.last_slot + 1 - slot)
        for f in files
    ])
    owner, layer, node = built.balance_nodes
    first = np.flatnonzero(layer == slot)
    built.model.b_eq[first] = [
        files[k].supplies.get(n, 0.0)
        for k, n in zip(owner[first].tolist(), node[first].tolist())
    ]
    return built, solve_lp(built.model)


class ReplanningPostcardScheduler(Scheduler):
    """Executes one slot at a time, re-deriving the rest every slot."""

    name = "postcard-replan"

    def __init__(self, topology: Topology, horizon: int, on_infeasible: str = "raise"):
        super().__init__(topology, horizon, on_infeasible)
        self.active: List[ActiveFile] = []
        self.last_objective: Optional[float] = None

    @property
    def carried(self) -> List[TransferRequest]:
        return [f.request for f in self.active]

    # -- the online loop -------------------------------------------------

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        """Admission, then the slot's arcs of the joint plan; every slot
        plans, an idle one included, since the active files move on.
        An active file past its last slot is left out, and a file the plan
        leaves out is refused at :meth:`commit_plan`."""
        return self._plan(slot, requests, [f for f in self.active if f.request.last_slot >= slot])

    def _plan(self, slot: int, requests: List[TransferRequest],
              active: List[ActiveFile]) -> SlotPlan:
        """Newcomers are shed against the ``active`` files; if all are, the
        active files are planned alone.  A surprise outage can leave even
        those jointly infeasible: they are then shed under the same policy,
        and the newcomers get a second look against the ones kept."""
        plan = self._shed(
            lambda subset: self._solve(slot, active + [_fresh(r) for r in subset]), requests,
        )
        if plan.accepted:
            return plan
        by_id = {f.request.request_id: f for f in active}
        alone = shed_until_feasible(
            lambda kept: self._solve(slot, [by_id[r.request_id] for r in kept]),
            [f.request for f in active], self.on_infeasible,
        )
        if alone.rejected and requests:
            return self._plan(slot, requests, [by_id[r.request_id] for r in alone.accepted])
        plan.schedule = alone.schedule
        return plan

    def _solve(self, slot: int, files: List[ActiveFile]) -> TransferSchedule:
        """Plan all remaining volume; the slot-``slot`` arcs of the plan."""
        obs.counter("scheduler.replans")
        with obs.span("scheduler.replan", slot=slot, files=len(files)):
            built, solution = solve_multisource_plan(self._state, slot, files)
        self.last_objective = solution.objective
        return built.schedule(solution, built.flow_columns[3] == slot)

    # -- checkpoints ----------------------------------------------------------

    def checkpoint_meta(self) -> Dict[str, Any]:
        """The files in flight: their undelivered GB is kept nowhere else."""
        return {"in_flight": [
            [astuple(f.request), list(f.supplies.items()), f.delivered]
            for f in self.active
        ]}

    def adopt_meta(self, meta: Dict[str, Any]) -> None:
        self.active = [
            ActiveFile(TransferRequest(*request), dict(supplies), delivered)
            for request, supplies, delivered in meta.get("in_flight", [])
        ]

    # -- surprise-failure recovery ------------------------------------------

    def resupply(
        self, request: TransferRequest, supplies: Dict[int, float], delivered: float,
    ) -> None:
        """Execution-time disruption hook used by the recovery layer: a
        surprise outage voided some of this slot's executed arcs, and the
        engine reconstructed where the file's undelivered data really sits.
        That ground truth replaces the file's entry in the active set (or
        re-enters it), and the next slot's replan routes around the outage.
        """
        for f in self.active:
            if f.request.request_id == request.request_id:
                f.supplies, f.delivered = dict(supplies), delivered
                break
        else:
            self.active.append(ActiveFile(request, dict(supplies), delivered))
        # A completion recorded from the voided arcs is no longer true.
        self._state.completions.pop(request.request_id, None)

    # -- execution ----------------------------------------------------------

    def commit_plan(self, plan: SlotPlan) -> TransferSchedule:
        """Execute the plan's arcs (one slot's): the ledger records them,
        the state counts the GB-slots they store, the accepted files join
        the active set, and every file's supplies move along.  An active
        file the plan neither sends nor stores (past its last slot, or
        shed) leaves the set, refused unless its delivery is already on
        record."""
        schedule = plan.schedule
        planned = {entry[0] for entry in schedule.entries} | {rid for rid, _ in schedule.stored}
        completions = self._state.completions
        for f in self.active:
            if f.request.request_id not in planned and f.request.request_id not in completions:
                self._state.reject(f.request)
        for request in plan.rejected:
            self._state.reject(request)
        self.active = [f for f in self.active if f.request.request_id in planned]
        self.active.extend(_fresh(r) for r in plan.accepted)
        self._state.record_traffic(
            ((src, dst, slot), gb) for _, src, dst, slot, gb in schedule.entries
        )
        moved: Dict[int, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for rid, src, dst, slot, volume in schedule.entries:
            moved[rid][src] -= volume
            moved[rid][dst] += volume

        by_id = {f.request.request_id: f for f in self.active}
        for rid, deltas in moved.items():
            f = by_id[rid]
            for node, delta in deltas.items():
                if node == f.request.destination and delta > 0:
                    f.delivered += delta
                else:
                    f.supplies[node] = f.supplies.get(node, 0.0) + delta
            f.supplies = {node: gb for node, gb in f.supplies.items() if gb > VOLUME_ATOL}
            if f.remaining <= max(VOLUME_ATOL, 1e-9 * f.request.size_gb):
                self._state.completions[rid] = slot  # the plan's one slot
        self._state.storage_used += schedule.total_storage_volume()
        self.active = [f for f in self.active if f.remaining > VOLUME_ATOL]
        return schedule


def _fresh(request: TransferRequest) -> ActiveFile:
    """A newly released file: all of it still at its source."""
    return ActiveFile(request, supplies={request.source: request.size_gb})
