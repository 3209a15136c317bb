"""The scheduler interface shared by Postcard and every baseline."""

from __future__ import annotations

import abc
from typing import List, TYPE_CHECKING

from repro.errors import SchedulingError

if TYPE_CHECKING:
    from repro.core.schedule import TransferSchedule
    from repro.core.state import NetworkState
    from repro.traffic.spec import TransferRequest

#: What to do when a slot's files cannot all meet their deadlines.
ON_INFEASIBLE_RAISE = "raise"
ON_INFEASIBLE_DROP = "drop"


class Scheduler(abc.ABC):
    """Decides routing and timing for each slot's newly released files.

    A scheduler owns a :class:`~repro.core.state.NetworkState` and is
    driven slot by slot: the simulator calls :meth:`on_slot` with the
    files released at that slot; the scheduler returns the committed
    :class:`~repro.core.schedule.TransferSchedule` (already applied to
    its state).  Decisions are *online*: once committed, a transfer is
    never rescheduled, matching the paper's model where "all routing
    paths and flow assignments for previous traffic pairs are already
    known".
    """

    #: Human-readable name used in benchmark tables.
    name: str = "scheduler"

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

    @property
    @abc.abstractmethod
    def state(self) -> "NetworkState":
        """The scheduler's view of committed traffic and paid volumes.

        Returns:
            The :class:`~repro.core.state.NetworkState` every cost,
            completion, and rejection is recorded against.  Composite
            schedulers (e.g. the hybrid) may share one state across
            internal lanes, but externally there is always exactly one.
        """

    def adopt_state(self, state: "NetworkState") -> None:
        """Replace this scheduler's state with a restored one.

        The checkpoint workflow builds a fresh scheduler and hands it a
        :class:`~repro.core.state.NetworkState` restored by
        :mod:`repro.core.checkpoint`.  The default assumes the
        conventional ``_state`` attribute every in-tree scheduler uses;
        composite schedulers override it to re-point internal lanes and
        any caches that hold a state reference.

        Args:
            state: The restored state; must be built against the same
                topology this scheduler was constructed with.
        """
        self._state = state

    @abc.abstractmethod
    def on_slot(
        self, slot: int, requests: List["TransferRequest"]
    ) -> "TransferSchedule":
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
