"""The fast lane's per-slot window table.

Introduced in PR 4 as a dict of pending volumes over a
:class:`~repro.core.state.NetworkState`; since PR 13 the table the fast
lane plans against.  Planning asks three things of a ``(link, slot)``
cell: the residual capacity left, how much of it is *free* (under the
already-paid charged volume ``X_ij(t-1)``), and how utilized the cell
would be if the batch's tentative placements landed.

The first time a batch touches a link, :class:`UtilizationTracker`
composes that link's :class:`LinkRows` — plain lists over the batch's
window, from its release slot through its latest deadline slot — in one
row read (:meth:`NetworkState.link_rows`, and the forecast's reservation
row over the same committed volumes), so the fault gate, the
link-schedule gate and ``capacity - committed`` are evaluated once per
cell per slot however many requests sweep it; a path's list of hop rows
is likewise built once per batch and handed out to every file that tries
the path.  Rows are scratch: valid from :meth:`reset` until the state
next changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.core.state import NetworkState


@dataclass
class LinkRows:
    """One link's cells over the current window, as parallel lists.

    Index ``i`` is slot ``base + i``.  ``residual`` is the state's gated
    residual capacity and ``committed`` its ledger volume (the fast lane's
    batch never enters them; greedy folds each placed file in, as its
    commit lands it); ``pending`` is the batch's tentative load; ``reserved``
    is the forecast reservation row (``None`` with no forecast attached).
    """

    capacity: float
    price: float
    charged: float
    reserved: Optional[List[float]]
    residual: List[float] = field(default_factory=list)
    committed: List[float] = field(default_factory=list)
    pending: List[float] = field(default_factory=list)

    def room(self, i: int, free: bool, reserved: bool) -> float:
        """Volume cell ``i`` can still take under one ALAP pass's view.

        ``free`` caps the residual at the paid headroom (charged peak
        minus committed and pending); ``reserved`` then subtracts the
        forecast reservation.  The ALAP sweep inlines it.
        """
        pending = self.pending[i]
        room = self.residual[i] - pending
        if free:
            paid = self.charged - (self.committed[i] + pending)
            if paid < room:
                room = paid
        if room <= 0.0:
            return 0.0
        if reserved:
            room -= self.reserved[i]
            if room < 0.0:
                return 0.0
        return room

    def utilization(self, i: int) -> float:
        """(committed + pending) / raw link capacity for cell ``i``."""
        if self.capacity <= 0.0:
            return 1.0
        return (self.committed[i] + self.pending[i]) / self.capacity


class UtilizationTracker:
    """Window rows, per link and per path, for one batch.

    ``state`` is the scheduler's :class:`~repro.core.state.NetworkState`:
    committed volumes, charged peaks and (fault- and window-aware)
    residual capacities are read from it; it is never mutated.
    """

    def __init__(self, state: NetworkState):
        self._state = state
        #: Rows cover slots ``[_base, _end)``: the batch's window.
        self._base, self._end = 0, 1
        self._rows: Dict[Tuple[int, int], LinkRows] = {}
        #: path nodes -> the path's hop rows (:meth:`path_rows`).
        self._paths: Dict[tuple, List[LinkRows]] = {}
        #: Optional ``(src, dst, start, committed) -> GB per cell``
        #: callback: the forecast-predicted background load reserved on
        #: the cells ``start, start + 1, ...`` whose committed volumes are
        #: ``committed`` (:meth:`ForecastProvider.reservation_row`, wired
        #: by :meth:`FastLaneScheduler.attach_forecast`); ``None``: reactive.
        self.reservation = None

    def reset(self, slot: int = 0, last: Optional[int] = None) -> None:
        """Drop every row; the next batch's window runs from ``slot``
        through ``last`` (its latest deadline slot; default ``slot``)."""
        self._base = slot
        self._end = (slot if last is None else max(slot, last)) + 1
        self._rows.clear()
        self._paths.clear()

    def rows(self, src: int, dst: int, slot: int) -> LinkRows:
        """The link's rows, composed through the window's end, and through
        ``slot`` inclusive if that lies beyond it."""
        if slot < self._base:
            raise SchedulingError(f"slot {slot} precedes the window start {self._base}")
        if slot >= self._end:
            self._widen(slot)
        rows = self._rows.get((src, dst))
        if rows is None:
            rows = self._rows[(src, dst)] = self._compose(src, dst, self._base, self._end)
        elif self._base + len(rows.pending) < self._end:
            self._compose(src, dst, self._base + len(rows.pending), self._end, rows)
        return rows

    def _widen(self, slot: int) -> None:
        """Move the window's end past ``slot``; the path lists built so
        far hold rows that stop short of it."""
        self._end = slot + 1
        self._paths.clear()

    def _compose(
        self, src: int, dst: int, start: int, end: int,
        rows: Optional[LinkRows] = None,
    ) -> LinkRows:
        """The state's cells ``[start, end)`` of a link, in one row read,
        appended to ``rows`` (new rows when ``None``)."""
        state, reservation = self._state, self.reservation
        residual, committed = state.link_rows(src, dst, start, end)
        reserved = None if reservation is None else reservation(src, dst, start, committed)
        pending = [0.0] * (end - start)
        if rows is None:
            link = state.topology.link(src, dst)
            return LinkRows(link.capacity, link.price, state.charged_volume(src, dst),
                            reserved, residual, committed, pending)
        rows.residual += residual
        rows.committed += committed
        rows.pending += pending
        if reserved is not None:
            rows.reserved += reserved
        return rows

    # -- scalar queries: one cell, read from the live state.  The planner
    # reads the rows; these stay because the spine's tracer counts them.

    def _cell(self, src: int, dst: int, slot: int) -> LinkRows:
        cell = self._compose(src, dst, slot, slot + 1)
        rows, i = self._rows.get((src, dst)), slot - self._base
        if rows is not None and 0 <= i < len(rows.pending):
            cell.pending[0] = rows.pending[i]
        return cell

    def residual(self, src: int, dst: int, slot: int) -> float:
        """Capacity left on a cell after committed *and* pending load."""
        return self._cell(src, dst, slot).room(0, False, False)

    def headroom(self, src: int, dst: int, slot: int) -> float:
        """Free volume the cell can still carry: what is left of the paid
        peak ``X_ij(t-1)`` after committed and pending, within residual."""
        return self._cell(src, dst, slot).room(0, True, False)

    def forecast_residual(self, src: int, dst: int, slot: int) -> float:
        """Residual capacity minus the forecast reservation on a cell:
        paid lifts prefer slots the predictors mark quiet.  The plain
        pass runs last, so this shapes placement, never admission."""
        cell = self._cell(src, dst, slot)
        return cell.room(0, False, cell.reserved is not None)

    def forecast_headroom(self, src: int, dst: int, slot: int) -> float:
        """Paid headroom minus the forecast reservation on a cell."""
        cell = self._cell(src, dst, slot)
        return cell.room(0, True, cell.reserved is not None)

    def path_rows(self, path: Sequence[int], slot: int) -> List[LinkRows]:
        """A path's hop rows, composed through ``slot`` inclusive.

        The list is built on the path's first ask in a batch and handed
        out again until :meth:`reset`; its rows are :meth:`rows`' own
        objects.  Read it, never mutate it.
        """
        if slot >= self._end:
            self._widen(slot)
        key = tuple(path)
        hop_rows = self._paths.get(key)
        if hop_rows is None:
            rows = self.rows
            hop_rows = self._paths[key] = [
                rows(a, b, slot) for a, b in zip(path, path[1:])
            ]
        return hop_rows

    def peak_utilization(self) -> float:
        """Highest utilization over the cells this batch touches.

        The hybrid mode's admission-pressure signal: only link-slots
        with pending volume count, so an empty batch reports 0.0 and
        one squeezed cell reports ~1.0 however idle the rest is.
        """
        touched = (
            rows.utilization(i) for rows in self._rows.values()
            for i, pending in enumerate(rows.pending) if pending > 0.0
        )
        return max(touched, default=0.0)
