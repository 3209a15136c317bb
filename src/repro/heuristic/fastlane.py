"""The fast-lane scheduler: constant-ish-time admission + ALAP placement.

Introduced in PR 4.  Inspired by close-to-deadline schedulers for
inter-datacenter transfers (DCRoute, RCD): instead of solving the
Postcard LP every slot, each arriving request passes an **admission
test** — is there residual capacity along some candidate path that
delivers the file within its deadline ``T_k``? — and, if admitted, is
placed by an **as-late-as-possible (ALAP)** rule that packs bytes into
the slots nearest the deadline.  Keeping early slots free preserves
admission headroom for future, possibly tighter-deadline arrivals;
filling already-paid headroom first keeps the bill from growing while
free capacity exists.

Per request the work is O(candidate paths x window length): one
top-down sweep per hop and pass over at most ``T_k`` cells of the
:class:`UtilizationTracker`'s window rows, read as plain lists.  A plan
lists per hop only the cells it sends in (:data:`Sends`); most hops
send the whole file in the sweep's first cell, and those are placed
without a sweep.  Once a candidate costs nothing, those with as many
hops or more are skipped (they can only tie); only the winner becomes
schedule entries, one per hop and slot that sends, and the GB-slots it
waits.  Admitted requests meet their deadline by construction (per-hop
precedence windows inside ``[release, release + T_k - 1]``), and the
slot's one commit re-validates everything before recording.  The price
is cost: files are planned one at a time against marginal bill
increase; the :class:`~repro.heuristic.hybrid.HybridScheduler`
escalates pressured slots to the LP to recover most of the gap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.interfaces import ON_INFEASIBLE_RAISE, Scheduler, SlotPlan
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.heuristic.paths import CandidatePathIndex
from repro.heuristic.tracker import LinkRows, UtilizationTracker
from repro.net.topology import Topology
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL

#: A hop's ALAP passes as ``(free, reserved)`` views of
#: :meth:`LinkRows.room`, keyed by (forecast active, headroom first).
#: Reserved passes precede their plain twins, so a wrong forecast costs
#: placement preference, never admission; all-zero reservations place
#: exactly what the plain passes would.
_PASSES = {
    (False, False): ((False, False),),
    (False, True): ((True, False), (False, False)),
    (True, False): ((False, True), (False, False)),
    (True, True): ((True, True), (True, False), (False, True), (False, False)),
}

#: One hop of a plan: ``(i, GB)`` pairs by rising window offset ``i``
#: (slot ``release + i``), one per cell the hop sends in, every GB > 0.
#: Most hops send the whole file in one cell: a one-pair list.
Sends = List[Tuple[int, float]]


class CandidatePathScheduler(Scheduler):
    """The LP-free engine under the fast lane and the greedy baseline.

    Per file: the K cheapest window-aware candidate paths, each placed
    on the tracker's window rows by the subclass's :meth:`_sends` rule
    and costed by marginal bill increase; :meth:`_beats` picks the
    winner, which :meth:`_hold` counts against the rest of the slot and
    which becomes schedule entries.

    Parameters
    ----------
    topology, horizon:
        The inter-datacenter network; slots in the charging period.
    num_candidate_paths:
        Cheapest simple paths examined per request (the admission
        test's fan-out).
    on_infeasible:
        ``"raise"``: a slot with an inadmissible request raises
        :class:`InfeasibleError` and commits nothing; ``"drop"``
        records the request via ``state.reject``.
    state:
        Optional externally owned :class:`NetworkState` to plan and
        commit against — the hybrid scheduler passes the LP lane's
        state here so both lanes share one ledger.
    """

    def __init__(
        self,
        topology: Topology,
        horizon: int,
        num_candidate_paths: int = 4,
        on_infeasible: str = ON_INFEASIBLE_RAISE,
        state: Optional[NetworkState] = None,
    ):
        super().__init__(topology, horizon, on_infeasible, state)
        self._paths = CandidatePathIndex(topology, max_paths=num_candidate_paths)
        self._tracker = UtilizationTracker(self._state)

    def adopt_state(self, state: NetworkState) -> None:
        """Re-point at a restored state (checkpoint resume path); the
        tracker reads the state it was built on, so it is rebuilt too."""
        super().adopt_state(state)
        self._tracker = UtilizationTracker(state)

    @property
    def tracker(self) -> UtilizationTracker:
        """The window table (rows and pending load of the current batch)."""
        return self._tracker

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        """Plan the files one at a time in :meth:`_order`, each against the
        rows the ones before it left (:meth:`_hold`); nothing is committed.
        The plan lands file by file, in that order.  The rows are dropped
        once planned: nothing after the plan reads them."""
        self._tracker.reset(slot, max((r.last_slot for r in requests), default=slot))
        plan = SlotPlan(per_file=True)
        entries: List[ScheduleEntry] = []
        stored: List[Tuple[int, float]] = []
        for request in sorted(requests, key=self._order):
            planned = self._plan_file(request)
            if planned is None:
                plan.rejected.append(request)
                continue
            placed, waited = planned
            plan.accepted.append(request)
            entries += placed
            if waited:
                stored.append((request.request_id, waited))
        plan.peak_utilization = self._tracker.peak_utilization()
        self._tracker.reset()
        plan.schedule = TransferSchedule(entries, stored=stored)
        return plan

    def _order(self, request: TransferRequest):
        """The sort key of a slot's planning order."""
        raise NotImplementedError

    def _sends(
        self, hop_rows: Sequence[LinkRows], request: TransferRequest
    ) -> Optional[List[Sends]]:
        """Per hop, the :data:`Sends` pairs under this scheduler's
        placement rule; ``None`` when the path cannot carry the file by
        its deadline."""
        raise NotImplementedError

    def _beats(self, cost: float, path: List[int], best: tuple) -> bool:
        """Whether a candidate replaces ``best = (cost, len(path), ...)``."""
        raise NotImplementedError

    def _plan_file(
        self, request: TransferRequest
    ) -> Optional[Tuple[List[ScheduleEntry], float]]:
        """Admission test + placement: the cheapest feasible candidate.

        Places the file along each candidate path; the feasible plan
        :meth:`_beats` prefers (candidate order breaks the rest) joins
        the pending rows and comes back as :func:`_emit`'s schedule
        entries and GB-slots of waiting; ``None`` when no candidate fits.
        """
        # Window-aware candidates: never spend sweeps on a path with a
        # hop that stays dark for the whole request window.
        last = request.last_slot
        candidates = self._paths.candidates(
            request.source, request.destination, request.deadline_slots,
            schedule=getattr(self._state, "link_schedule", None),
            window=(request.release_slot, last + 1),
        )
        rows_of = self._tracker.path_rows
        best, free_hops = None, None
        for path in candidates:
            # Exact cut: once a plan is free, a candidate with as many hops
            # or more can only tie it, and no _beats lets a tie win.
            if free_hops is not None and len(path) >= free_hops:
                continue
            hop_rows = rows_of(path, last)
            sends = self._sends(hop_rows, request)
            # A plan that sends nothing delivers nothing: inadmissible.
            if sends is None or not sends[-1]:
                continue
            cost = _bill_increase(hop_rows, sends)
            if best is None or self._beats(cost, path, best):
                best = (cost, len(path), path, hop_rows, sends)
                if cost == 0.0:
                    free_hops = len(path)
        if best is None:
            return None
        _, _, path, hop_rows, sends = best
        self._hold(hop_rows, sends)
        return _emit(request, path, sends)

    def _hold(self, hop_rows: Sequence[LinkRows], sends: List[Sends]) -> None:
        """Count a winning plan against the rest of the batch: as the
        rows' pending load, which every later file of the slot sees."""
        for rows, sent in zip(hop_rows, sends):
            pending = rows.pending
            for i, volume in sent:
                pending[i] += volume


class FastLaneScheduler(CandidatePathScheduler):
    """Deadline-guaranteed admission + close-to-deadline placement
    (constructor parameters: see :class:`CandidatePathScheduler`)."""

    name = "heuristic"
    admission_counters = ("heuristic.admitted", "heuristic.rejected")

    #: Whether the slot being planned runs the reserved passes.
    _reserving = False

    def adopt_state(self, state: NetworkState) -> None:
        """An attached forecast provider is re-wired onto the rebuilt
        tracker and re-bound to ``state``, so it trains on and reserves
        against the restored ledger; it keeps its predictor state (the
        traffic process did not change, only the ledger object did)."""
        super().adopt_state(state)
        if self.forecast is not None:
            self.attach_forecast(self.forecast)
            self.forecast.bind(state)

    def attach_forecast(self, provider) -> None:
        """Wire a forecast provider into the ALAP placement passes.

        Its damped reservations are subtracted from the views of extra
        *preference* passes; the plain passes still run after them, so a
        reservation can only change where admitted volume parks.
        """
        self.forecast = provider
        self._tracker.reservation = (
            provider.reservation_row if provider is not None else None
        )
        if provider is not None and not provider.bound:
            provider.bind(self._state)

    def plan_slot(self, slot: int, requests: List[TransferRequest]) -> SlotPlan:
        """Plan every request tentatively — nothing is committed.

        Requests are processed tightest-deadline-first (ties: largest
        desired rate), each seeing the load of the ones planned before
        it in the table's pending rows.  The hybrid mode discards the
        plan when escalating.  An idle slot plans nothing and emits nothing.
        """
        if not requests:
            return SlotPlan(per_file=True)
        self._reserving = self.forecast is not None and self.forecast.active
        with obs.span("scheduler.fastlane", slot=slot, requests=len(requests)):
            return super().plan_slot(slot, requests)

    def _order(self, request: TransferRequest) -> tuple:
        """Tightest deadline first; ties: largest desired rate."""
        return (request.deadline_slots, -request.desired_rate)

    # -- per-file planning -------------------------------------------------

    def _sends(self, hop_rows, request):
        """Headroom-first ALAP and, where free capacity fragments that
        placement into infeasibility, the pure one."""
        return (self._place(hop_rows, request, True)
                or self._place(hop_rows, request, False))

    def _beats(self, cost, path, best):
        """Smallest marginal bill increase; ties: fewest hops."""
        return (cost, len(path)) < best[:2]

    def _place(
        self, hop_rows: Sequence[LinkRows], request: TransferRequest,
        headroom_first: bool,
    ) -> Optional[List[Sends]]:
        """ALAP placement along one path, planned backward from the deadline.

        Returns per hop the :data:`Sends` pairs.  Hop ``h`` (0-based, of
        ``L``) may use offsets ``[h, T - (L - h)]``.  Hops are planned in
        reverse: the last owes the whole file by the deadline; each
        earlier one owes, by offset ``i - 1``, what the next sends at
        ``i`` (store-and-forward precedence).  Within a hop the dues go
        to the latest admissible slots — paid headroom first when
        ``headroom_first`` — so early slots stay free for future
        arrivals.  A single due the sweep would land in one cell
        (:func:`_whole_cell`) becomes that cell's pair without a sweep.
        """
        hops, span = len(hop_rows), request.deadline_slots
        passes = _PASSES[self._reserving, headroom_first]
        sends: List[Sends] = [None] * hops
        due, volume = span - 1, request.size_gb  # the one due, while there is one
        for h in range(hops - 1, -1, -1):
            if due is not None:
                cell = _whole_cell(hop_rows[h], h, due, volume, passes)
                if cell is not None:
                    sends[h] = [cell]
                    due, volume = cell
                    due -= 1
                    continue
                dues = [(due, volume)]
            sent = _alap_hop(hop_rows[h], h, span - hops + h, dues, passes)
            if sent is None:
                return None
            sends[h] = sent
            # What leaves hop h at offset i is owed by hop h - 1 at i - 1.
            if len(sent) == 1:
                due, volume = sent[0]
                due -= 1
            else:
                due, dues = None, [(i - 1, volume) for i, volume in reversed(sent)]
        return sends


def _alap_hop(
    rows: LinkRows, lo: int, hi: int, dues: List[Tuple[int, float]],
    passes: Sequence[Tuple[bool, bool]],
) -> Optional[Sends]:
    """Pack one hop's dues into offsets ``[lo, hi]``, latest slots first.

    ``dues`` lists ``(i, GB)`` by falling ``i``: GB that must have left
    by the end of offset ``i``, all inside ``[lo, hi]``.  Each pass
    sweeps once from ``hi`` down to ``lo`` carrying the volume parked
    above the cell; placing at ``i`` is capped so that, at every cutoff
    ``m <= i``, the volume parked at offsets ``>= m`` never exceeds what
    is *allowed* to be that late (total minus the dues binding at
    ``m - 1``).  Within one descending pass the cutoff at ``i`` is the
    binding one, but a later pass placing *above* volume an earlier pass
    parked must recheck those lower cutoffs too, or it overdraws
    lateness budget the earlier placement already spent.  Cutoffs at
    offsets no pass filled cannot bind (their allowance only grows
    downward), so only filled ones are rechecked.  A cell's room is
    :meth:`LinkRows.room`, inlined.  Returns the hop's :data:`Sends`
    (none when the dues are within the tolerance), or ``None`` if the
    window cannot carry the dues.
    """
    if lo > hi:
        return None
    total = 0.0
    for _, volume in dues:
        total += volume
    tol = max(VOLUME_ATOL, 1e-9 * total)
    if total <= tol:
        return []
    sent = [0.0] * (hi + 1)
    # late[i]: what may leave at offset i or later: total - dues below i, top-down.
    late = [total] * (hi + 1)
    top = hi
    for k, (j, _) in enumerate(dues):
        through = 0.0
        for _, volume in dues[k:]:
            through += volume
        for i in range(j + 1, top + 1):
            late[i] = total - through
        top = j

    residual, committed, pending = rows.residual, rows.committed, rows.pending
    charged, reservation = rows.charged, rows.reserved
    remaining = total
    filled: List[int] = []  # offsets earlier passes parked volume at
    for free, reserved in passes:
        above = 0.0  # parked at offsets > i, summed top-down
        for i in range(hi, lo - 1, -1):
            here = sent[i]
            placed = above + here
            waiting = pending[i]
            room = residual[i] - waiting
            if free:
                paid = charged - (committed[i] + waiting)
                if paid < room:
                    room = paid
            if room > 0.0:
                if reserved:
                    room -= reservation[i]
                cap = room - here
                if cap > VOLUME_ATOL:
                    allowed = late[i] - placed
                    below = placed
                    for m in filled:
                        if m < i:
                            below += sent[m]
                            allowed = min(allowed, late[m] - below)
                    take = min(cap, allowed, remaining)
                    if take > VOLUME_ATOL:
                        sent[i] = here + take
                        remaining -= take
                        if remaining <= tol:
                            return [(m, sent[m]) for m in range(lo, hi + 1) if sent[m] > 0.0]
                        placed = above + sent[i]
            above = placed
        filled = [m for m in range(hi, lo - 1, -1) if sent[m] > 0.0]
    return None


def _whole_cell(
    rows: LinkRows, lo: int, due: int, size: float,
    passes: Sequence[Tuple[bool, bool]],
) -> Optional[Tuple[int, float]]:
    """The one cell where :func:`_alap_hop` lands a single due of ``size``
    GB, as its ``(offset, GB)`` pair; ``None`` if the sweep fills a second
    cell, places nothing, or leaves the due unpaid.

    The sweep's first placement is ``min(room, size)`` at the first cell,
    pass by pass from ``due`` down, whose room (computed as the sweep
    does) exceeds the tolerance: nothing may park above ``due``, and until
    the sweep places every pass reads the rows as they are.  Most hops
    stop there, with the whole due; a smaller first take goes on in
    :func:`_split_cell`.
    """
    if size <= VOLUME_ATOL:
        return None
    residual, committed, pending = rows.residual, rows.committed, rows.pending
    charged, reservation = rows.charged, rows.reserved
    for free, reserved in passes:
        for i in range(due, lo - 1, -1):
            waiting = pending[i]
            room = residual[i] - waiting
            if free:
                paid = charged - (committed[i] + waiting)
                if paid < room:
                    room = paid
            if room > 0.0:
                if reserved:
                    room -= reservation[i]
                if room > VOLUME_ATOL:
                    if room >= size:
                        return i, size
                    rest = passes[passes.index((free, reserved)):]
                    return _split_cell(rows, lo, due, size, rest, i, room)
    return None


def _split_cell(
    rows: LinkRows, lo: int, due: int, size: float,
    passes: Sequence[Tuple[bool, bool]], at: int, sent: float,
) -> Optional[Tuple[int, float]]:
    """:func:`_whole_cell` after a first take of ``sent`` < ``size`` GB at
    offset ``at`` by ``passes[0]``: the sweep's later takes, which must all
    top up ``at`` — a paid-headroom pass leaving the rest to the plain
    pass there is the common case.  Each take is the sweep's own
    ``min(cap, allowed, remaining)``, with ``allowed = size - sent`` at
    every cell (the cutoff at ``at`` binds above it), and the cell's
    volume is summed as the sweep sums it, ``here + take``."""
    tol = max(VOLUME_ATOL, 1e-9 * size)
    remaining = size - sent
    if remaining <= tol:
        return at, sent
    room = rows.room
    top = at - 1  # the placing pass goes on below ``at``
    for free, reserved in passes:
        for i in range(top, lo - 1, -1):
            cap = room(i, free, reserved)
            if i != at:
                if cap > VOLUME_ATOL and min(cap, size - sent, remaining) > VOLUME_ATOL:
                    return None
                continue
            cap -= sent
            if cap > VOLUME_ATOL:
                take = min(cap, size - sent, remaining)
                if take > VOLUME_ATOL:
                    sent += take
                    remaining -= take
                    if remaining <= tol:
                        return at, sent
        top = due
    return None


def _bill_increase(hop_rows: Sequence[LinkRows], sends: List[Sends]) -> float:
    """Bill increase if ``sends`` joined the committed + pending load."""
    cost = 0.0
    for rows, sent in zip(hop_rows, sends):
        committed, pending, charged = rows.committed, rows.pending, rows.charged
        over = 0.0
        for i, volume in sent:
            lift = volume + committed[i] + pending[i] - charged
            if lift > over:
                over = lift
        if over > 0.0:
            cost += rows.price * over
    return cost


def _emit(
    request: TransferRequest, path: List[int], sends: List[Sends]
) -> Tuple[List[ScheduleEntry], float]:
    """One transit entry per hop and slot that sends, and the GB-slots the
    file waits: what sits at a hop's tail before it departs, summed over
    the waiting slots in hop, then slot order.

    A hop's tail receives what the hop before sent, one offset later (the
    source holds the file from offset 0).  The walk visits only the
    offsets where something arrives or leaves; between two of them the
    buffer holds still and is added once per slot."""
    rid, release = request.request_id, request.release_slot
    entries: List[ScheduleEntry] = []
    stored = 0.0
    # What reaches the hop's tail: one cell (at, arrived) while ``arrivals``
    # is None, else the pairs.
    at, arrived, arrivals = 0, request.size_gb, None
    for h, sent in enumerate(sends):
        src, dst = path[h], path[h + 1]
        if arrivals is None and len(sent) == 1:
            # One cell in, one cell out: what arrived waits whole until it leaves.
            i, volume = sent[0]
            entries.append(ScheduleEntry(rid, src, dst, release + i, volume))
            if arrived > VOLUME_ATOL:
                for _ in range(at, i):
                    stored += arrived
            at, arrived = i + 1, volume
            continue
        if arrivals is None:
            arrivals = [(at, arrived)]
        if sent:
            last = sent[-1][0]
            events = sorted(
                [(i, 0, volume) for i, volume in arrivals if i <= last]
                + [(i, 1, volume) for i, volume in sent]
            )
            buffered = 0.0
            for k, (i, leaves, volume) in enumerate(events, 1):
                if leaves:
                    entries.append(ScheduleEntry(rid, src, dst, release + i, volume))
                    buffered -= volume
                else:
                    buffered += volume
                if buffered > VOLUME_ATOL and k < len(events):
                    for _ in range(i, events[k][0]):
                        stored += buffered
        if len(sent) == 1:
            at, arrived, arrivals = sent[0][0] + 1, sent[0][1], None
        else:
            arrivals = [(i + 1, volume) for i, volume in sent]
    return entries, stored
