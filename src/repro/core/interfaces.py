"""The scheduler interface shared by Postcard and every baseline, and
:func:`slot_step`, the one place a slot is decided: the simulator and the
daemon (live and on WAL replay) both call it."""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.core.schedule import TransferSchedule
from repro.errors import InfeasibleError, SchedulingError
from repro.obs import registry as obs
from repro.units import VOLUME_ATOL

if TYPE_CHECKING:
    from repro.core.state import NetworkState
    from repro.traffic.spec import TransferRequest

#: What to do when a slot's files cannot all meet their deadlines.
ON_INFEASIBLE_RAISE = "raise"
ON_INFEASIBLE_DROP = "drop"


class Scheduler(abc.ABC):
    """Decides routing and timing for each slot's newly released files.

    A scheduler owns a :class:`~repro.core.state.NetworkState` and is
    driven slot by slot: :func:`slot_step` calls :meth:`on_slot` with
    the files released at that slot; the scheduler returns the committed
    :class:`~repro.core.schedule.TransferSchedule` (already applied to
    its state).  Decisions are *online*: once committed, a transfer is
    never rescheduled, matching the paper's model where "all routing
    paths and flow assignments for previous traffic pairs are already
    known".
    """

    #: Human-readable name used in benchmark tables.
    name: str = "scheduler"

    #: The lane that decided the last slot: ``fast``, or a composite
    #: scheduler's ``lp`` / ``degraded`` (the daemon journals it).
    last_lane: str = "fast"

    @staticmethod
    def _checked_policy(on_infeasible: str) -> str:
        """A constructor's ``on_infeasible`` argument, validated."""
        if on_infeasible not in (ON_INFEASIBLE_RAISE, ON_INFEASIBLE_DROP):
            raise SchedulingError(f"unknown on_infeasible policy {on_infeasible!r}")
        return on_infeasible

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

    def _refuse_negligible(self, requests: List["TransferRequest"]) -> list:
        """The files :meth:`_split_negligible` keeps; the refused are rejected."""
        kept, refused = self._split_negligible(requests)
        for request in refused:
            self.state.reject(request)
        return kept

    @property
    @abc.abstractmethod
    def state(self) -> "NetworkState":
        """The :class:`~repro.core.state.NetworkState` every cost,
        completion and rejection is recorded against: exactly one, even
        where a composite scheduler's lanes share it."""

    def adopt_state(self, state: "NetworkState") -> None:
        """Replace this scheduler's state with one restored from a
        checkpoint (built on the same topology).  Composite schedulers
        re-point their internal lanes and caches too."""
        self._state = state

    @abc.abstractmethod
    def on_slot(
        self, slot: int, requests: List["TransferRequest"]
    ) -> TransferSchedule:
        """Schedule the files released at ``slot`` and commit the result.

        Args:
            slot: The current slot index.  Implementations may require
                every request's ``release_slot`` to equal it.
            requests: The newly released files ``K(t)``; may be empty.

        Returns:
            The committed :class:`~repro.core.schedule.TransferSchedule`
            — already applied to :attr:`state`, so the caller must not
            commit it again.  Empty when nothing was scheduled.

        Raises:
            InfeasibleError: some file cannot meet its deadline and the
                scheduler's infeasibility policy is ``"raise"``; with
                ``"drop"``, the file is recorded in ``state.rejected``
                instead.
        """

    def replay_slot(
        self, slot: int, requests: List["TransferRequest"],
        lane: str, record: Optional[Dict[str, Any]] = None,
    ) -> TransferSchedule:
        """Re-run a journaled slot on the ``lane`` its WAL ``record`` names
        (a single-lane scheduler has one: :meth:`on_slot`)."""
        return self.on_slot(slot, requests)


class SlotStep(NamedTuple):
    """What :func:`slot_step` did: the committed schedule, the lane that
    decided it, the scheduler call's wall time (0.0 untimed), the bills
    of the charging periods it closed, and what ``probe`` returned."""

    schedule: TransferSchedule
    lane: str
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
    replay: Optional[Dict[str, Any]] = None,
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
    books the slot is decided against.  ``replay`` is a WAL commit
    record: the slot re-runs on the lane it names, and a ``failed`` one
    runs nothing.  ``span`` names a timed span around the scheduler call
    alone (``slot`` and ``attrs`` are its attributes).
    """
    state, bills = scheduler.state, []
    while period_slots and slot >= state.period_start + period_slots:
        boundary = state.period_start + period_slots
        bills.append(state.start_new_period(boundary))
        obs.gauge("billing.period_bill", round(bills[-1], 6), boundary=boundary)
    probed = probe() if probe is not None else None
    seconds = 0.0
    if replay is None and span is not None:
        with obs.timed_span(span, slot=slot, **attrs) as timed:
            schedule = scheduler.on_slot(slot, requests)
        seconds = timed.seconds
    elif replay is None:
        schedule = scheduler.on_slot(slot, requests)
    elif replay.get("lane") == "failed":
        return SlotStep(TransferSchedule(), "failed", seconds, bills, probed)
    else:
        lane = replay.get("lane", "fast")
        schedule = scheduler.replay_slot(slot, requests, lane, replay)
    return SlotStep(schedule, scheduler.last_lane, seconds, bills, probed)
