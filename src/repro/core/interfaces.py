"""The scheduler interface shared by Postcard and every baseline — one
slot contract (a pure :meth:`Scheduler.plan_slot`, one
:meth:`Scheduler.commit_plan`) and the shedding policy of the LP
schedulers — and :func:`slot_step`, the one place a slot is decided: the
simulator and the daemon (live and on WAL replay) both call it."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, TYPE_CHECKING,
)

from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.errors import InfeasibleError, SchedulingError
from repro.obs import registry as obs
from repro.units import VOLUME_ATOL

if TYPE_CHECKING:
    from repro.net.topology import Topology
    from repro.traffic.spec import TransferRequest

#: What to do when a slot's files cannot all meet their deadlines.
ON_INFEASIBLE_RAISE = "raise"
ON_INFEASIBLE_DROP = "drop"


@dataclass
class SlotPlan:
    """One slot's decision before commit; planning leaves the state untouched.

    ``schedule`` places the ``accepted`` files; ``rejected`` are the
    files refused.  ``per_file`` plans (the LP-free schedulers') were
    planned one file after another and land that way (see
    :meth:`~repro.core.state.NetworkState.commit`).  ``peak_utilization``
    is the fast lane's highest (committed + planned) / capacity over the
    link-slots it touches — the hybrid's pressure signal.  ``grants`` are
    the burst slots per link a q-aware solve amnestied, spent at commit.
    """

    schedule: TransferSchedule = field(default_factory=TransferSchedule)
    accepted: List["TransferRequest"] = field(default_factory=list)
    rejected: List["TransferRequest"] = field(default_factory=list)
    per_file: bool = False
    peak_utilization: float = 0.0
    grants: Dict[Tuple[int, int], Set[int]] = field(default_factory=dict)


def shed_until_feasible(
    solve_fn: Callable[[list], TransferSchedule],
    requests: List["TransferRequest"],
    on_infeasible: str = ON_INFEASIBLE_DROP,
    refused: Sequence["TransferRequest"] = (),
) -> SlotPlan:
    """Drop files until ``solve_fn(accepted)`` succeeds.

    Two-stage policy shared by all optimizing schedulers (under the
    ``"raise"`` policy the first :class:`InfeasibleError` propagates):

    1. Files that are infeasible *alone* (e.g. a deadline shorter than
       any admissible path) are dropped first — no amount of shedding
       other traffic can save them.
    2. If the set is still jointly infeasible (congestion), shed the
       most capacity-hungry file (largest desired rate, ties by size)
       one at a time.

    Returns the :class:`SlotPlan`: the schedule of the accepted files
    (empty when everything was shed, or nothing was asked) and, after
    the files already ``refused``, the dropped files in the order they
    were shed.  Nothing is committed.
    """
    plan = SlotPlan(accepted=list(requests), rejected=list(refused))
    if not requests:
        return plan
    try:
        plan.schedule = solve_fn(plan.accepted)
        return plan
    except InfeasibleError:
        if on_infeasible == ON_INFEASIBLE_RAISE:
            raise

    lonely_feasible = []
    for request in plan.accepted:
        try:
            solve_fn([request])
            lonely_feasible.append(request)
        except InfeasibleError:
            plan.rejected.append(request)
    plan.accepted = lonely_feasible

    while plan.accepted:
        try:
            plan.schedule = solve_fn(plan.accepted)
            return plan
        except InfeasibleError:
            victim = max(plan.accepted, key=lambda r: (r.desired_rate, r.size_gb))
            plan.accepted.remove(victim)
            plan.rejected.append(victim)
    return plan


class Scheduler(abc.ABC):
    """Decides routing and timing for each slot's newly released files.

    A scheduler owns a :class:`~repro.core.state.NetworkState` (or
    shares one passed as ``state``) and is driven slot by slot:
    :func:`slot_step` calls :meth:`on_slot` with the files released at
    that slot.  A subclass implements :meth:`plan_slot`, which decides
    the slot without touching the state; :meth:`commit_plan` then lands
    the whole plan under one audited commit, so a slot is committed
    once or not at all.  Decisions are *online*: once committed, a
    transfer is never rescheduled, matching the paper's model where "all
    routing paths and flow assignments for previous traffic pairs are
    already known".

    ``on_infeasible`` is ``"raise"`` (a slot whose files cannot all meet
    their deadlines raises :class:`InfeasibleError` and commits nothing)
    or ``"drop"`` (the refused files are recorded in ``state.rejected``).
    """

    #: Human-readable name used in benchmark tables.
    name: str = "scheduler"

    #: The lane that decided the last slot: ``fast``, or a composite
    #: scheduler's ``lp`` / ``degraded`` (the daemon journals it).
    last_lane: str = "fast"

    #: The plan the last slot committed (``None``: idle), which the daemon journals.
    last_plan: Optional[SlotPlan] = None

    #: ``False`` where a slot also moves files of earlier batches: the daemon
    #: journals no plan of it, and a replay plans the slot again.
    plan_replays: bool = True

    #: The ``(admitted, rejected)`` counters :meth:`commit_plan` emits:
    #: files committed per slot, and one per rejection (``None``: neither).
    admission_counters: Optional[Tuple[str, str]] = None

    #: Optional :class:`~repro.forecast.provider.ForecastProvider` the
    #: slot path trains (``None``: purely reactive, and nothing is called).
    forecast: Any = None

    def __init__(
        self,
        topology: "Topology",
        horizon: int,
        on_infeasible: str = ON_INFEASIBLE_RAISE,
        state: Optional[NetworkState] = None,
    ):
        if on_infeasible not in (ON_INFEASIBLE_RAISE, ON_INFEASIBLE_DROP):
            raise SchedulingError(f"unknown on_infeasible policy {on_infeasible!r}")
        self.on_infeasible = on_infeasible
        self._state = state if state is not None else NetworkState(topology, horizon)

    @property
    def state(self) -> NetworkState:
        """The :class:`~repro.core.state.NetworkState` every cost,
        completion and rejection is recorded against: exactly one, even
        where a composite scheduler's lanes share it."""
        return self._state

    def adopt_state(self, state: NetworkState) -> None:
        """Replace this scheduler's state with one restored from a
        checkpoint (built on the same topology).  Composite schedulers
        re-point their internal lanes and caches too."""
        self._state = state

    def checkpoint_meta(self) -> Dict[str, Any]:
        """What a checkpoint must keep besides the state, as snapshot meta
        entries; most schedulers carry nothing else from slot to slot."""
        return {}

    def adopt_meta(self, meta: Dict[str, Any]) -> None:
        """Restore what :meth:`checkpoint_meta` kept (checkpoint resume)."""

    @staticmethod
    def _check_released_at(slot: int, requests: List["TransferRequest"]) -> None:
        """Every request handed to a slot must be released at it."""
        for request in requests:
            if request.release_slot != slot:
                raise SchedulingError(
                    f"file {request.request_id} released at "
                    f"{request.release_slot}, scheduled at {slot}"
                )

    def _split_negligible(self, requests: List["TransferRequest"]) -> Tuple[list, list]:
        """``(kept, refused)``: a file of at most ``VOLUME_ATOL`` GB is refused
        before planning (a schedule drops volumes that small, so it would
        read back as not delivered); under ``"raise"`` it raises."""
        refused = [r for r in requests if r.size_gb <= VOLUME_ATOL]
        if refused and self.on_infeasible == ON_INFEASIBLE_RAISE:
            ids = [request.request_id for request in refused]
            raise InfeasibleError(f"files {ids} are within the volume tolerance")
        return [r for r in requests if r.size_gb > VOLUME_ATOL], refused

    def _shed(self, solve_fn: Callable[[list], TransferSchedule],
              requests: List["TransferRequest"]) -> SlotPlan:
        """:func:`shed_until_feasible` under this scheduler's policy, over
        the files :meth:`_split_negligible` keeps."""
        kept, refused = self._split_negligible(requests)
        return shed_until_feasible(solve_fn, kept, self.on_infeasible, refused)

    def on_slot(
        self, slot: int, requests: List["TransferRequest"]
    ) -> TransferSchedule:
        """Schedule the files released at ``slot`` and commit the result.

        Args:
            slot: The current slot index; every request's
                ``release_slot`` must equal it.
            requests: The newly released files ``K(t)``; may be empty.

        Returns:
            The committed :class:`~repro.core.schedule.TransferSchedule`
            — already applied to :attr:`state`, so the caller must not
            commit it again.  Empty when nothing was scheduled.

        Raises:
            InfeasibleError: some file cannot meet its deadline and the
                infeasibility policy is ``"raise"``; nothing of the slot
                is committed.  With ``"drop"``, the file is recorded in
                ``state.rejected`` instead.
        """
        return self._run(slot, requests, self.plan_slot)

    def _run(
        self, slot: int, requests: List["TransferRequest"],
        plan_slot: Callable[[int, List["TransferRequest"]], SlotPlan],
    ) -> TransferSchedule:
        """The slot path of :meth:`on_slot` and of a replayed slot: check
        the release slots, ``plan_slot``, raise under ``"raise"`` a plan
        that refuses a file, commit it and keep it as :attr:`last_plan`.
        An attached :attr:`forecast` begins the slot first and, after the
        commit, observes it — an idle slot too, since links carry volume
        deferred from earlier slots."""
        forecast = self.forecast
        if forecast is not None:
            forecast.begin_slot(slot)
        schedule, plan = TransferSchedule(), None
        if requests:
            self._check_released_at(slot, requests)
            plan = plan_slot(slot, requests)
            if plan.rejected and self.on_infeasible == ON_INFEASIBLE_RAISE:
                ids = [request.request_id for request in plan.rejected]
                raise InfeasibleError(
                    f"{self.name} cannot admit files {ids} at slot {slot}"
                )
            schedule = self.commit_plan(plan)
        self.last_plan = plan
        if forecast is not None:
            forecast.note_placements(schedule.entries)
            forecast.observe_slot(slot, requests, self._state)
        return schedule

    @abc.abstractmethod
    def plan_slot(self, slot: int, requests: List["TransferRequest"]) -> SlotPlan:
        """Decide the slot's files without committing anything: the
        state is left as it was, so the plan can be committed with
        :meth:`commit_plan` or dropped.  Under ``"raise"`` a plan that
        refuses a file is raised by :meth:`on_slot`, or raised here."""

    def commit_plan(self, plan: SlotPlan) -> TransferSchedule:
        """Land ``plan``: its schedule under one audited commit (a bad
        plan raises before anything is recorded), then its rejections."""
        counters = self.admission_counters
        if plan.accepted:
            self._state.commit(plan.schedule, plan.accepted, per_file=plan.per_file)
            if counters:
                obs.counter(counters[0], len(plan.accepted))
        for request in plan.rejected:
            self._state.reject(request)
            if counters:
                obs.counter(counters[1])
        return plan.schedule


class SlotStep(NamedTuple):
    """What :func:`slot_step` did: the committed schedule, the scheduler
    call's wall time (0.0 untimed), the bills of the charging periods it
    closed, and what ``probe`` returned."""

    schedule: TransferSchedule
    seconds: float
    bills: List[float]
    probed: Any = None


def slot_step(
    scheduler: Scheduler,
    slot: int,
    requests: List["TransferRequest"],
    period_slots: int = 0,
    /,
    *,
    probe: Optional[Callable[[], Any]] = None,
    plan_slot: Optional[Callable[[int, List["TransferRequest"]], SlotPlan]] = None,
    span: Optional[str] = None,
    **attrs: Any,
) -> SlotStep:
    """Decide ``slot``: roll the charging period over, then run the
    scheduler on the files released at it — on every slot, an idle one
    included, since a forecaster trains on one observation per slot.

    With ``period_slots = P`` (0: one period) every period that ends at
    or before ``slot`` is closed: :meth:`NetworkState.start_new_period`
    banks its bill and re-seeds the paid peaks from the volume in
    flight past the boundary.  This is the only place that happens, a
    function of the slot index alone, so a run and its replay cross the
    same boundaries.

    ``probe`` runs after the rollover and before the scheduler, on the
    books the slot is decided against.  A replay's ``plan_slot`` (the
    journaled plan) replaces the scheduler's in :meth:`Scheduler._run`,
    untimed.  ``span`` names a timed span around the scheduler call
    alone (``slot`` and ``attrs`` are its attributes).
    """
    state, bills = scheduler.state, []
    while period_slots and slot >= state.period_start + period_slots:
        boundary = state.period_start + period_slots
        bills.append(state.start_new_period(boundary))
        obs.gauge("billing.period_bill", round(bills[-1], 6), boundary=boundary)
    probed = probe() if probe is not None else None
    seconds = 0.0
    if plan_slot is not None:
        schedule = scheduler._run(slot, requests, plan_slot)
    elif span is not None:
        with obs.timed_span(span, slot=slot, **attrs) as timed:
            schedule = scheduler.on_slot(slot, requests)
        seconds = timed.seconds
    else:
        schedule = scheduler.on_slot(slot, requests)
    return SlotStep(schedule, seconds, bills, probed)
