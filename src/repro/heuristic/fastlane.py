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
:class:`UtilizationTracker`'s window rows, read as plain lists.  Most
hops stop at the sweep's first placement, which takes the whole file.
Once a candidate costs nothing, those with as many hops or more are
skipped (they can only tie); only the winner becomes schedule entries,
one per hop and slot that sends, and the GB-slots it waits.  Admitted
requests meet their deadline by construction (per-hop precedence
windows inside ``[release, release + T_k - 1]``), and the slot's one
commit re-validates everything before recording.  The price is cost:
files are planned one at a time against marginal bill increase; the
:class:`~repro.heuristic.hybrid.HybridScheduler` escalates pressured
slots to the LP to recover most of the gap.
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
    ) -> Optional[List[List[float]]]:
        """Per hop, the GB leaving its tail at each window offset ``i``
        (slot ``release + i``) under this scheduler's placement rule;
        ``None`` when the path cannot carry the file by its deadline."""
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
        candidates = self._paths.candidates(
            request.source, request.destination, request.deadline_slots,
            schedule=getattr(self._state, "link_schedule", None),
            window=(request.release_slot, request.last_slot + 1),
        )
        rows_of, last = self._tracker.path_rows, request.last_slot
        best, free_hops = None, None
        for path in candidates:
            # Exact cut: once a plan is free, a candidate with as many hops
            # or more can only tie it, and no _beats lets a tie win.
            if free_hops is not None and len(path) >= free_hops:
                continue
            hop_rows = rows_of(path, last)
            sends = self._sends(hop_rows, request)
            # A plan that sends nothing delivers nothing: inadmissible.
            if sends is None or not any(sends[-1]):
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

    def _hold(self, hop_rows: Sequence[LinkRows], sends: List[List[float]]) -> None:
        """Count a winning plan against the rest of the batch: as the
        rows' pending load, which every later file of the slot sees."""
        for rows, sent in zip(hop_rows, sends):
            for i, volume in enumerate(sent):
                if volume > 0.0:
                    rows.pending[i] += volume


class FastLaneScheduler(CandidatePathScheduler):
    """Deadline-guaranteed admission + close-to-deadline placement
    (constructor parameters: see :class:`CandidatePathScheduler`)."""

    name = "heuristic"
    admission_counters = ("heuristic.admitted", "heuristic.rejected")

    #: Whether the slot being planned runs the reserved passes.
    _reserving = False

    def adopt_state(self, state: NetworkState) -> None:
        """An attached forecast provider is re-wired onto the rebuilt
        tracker and keeps its predictor state (the traffic process did
        not change, only the ledger object did)."""
        super().adopt_state(state)
        if self.forecast is not None:
            self.attach_forecast(self.forecast)

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
    ) -> Optional[List[List[float]]]:
        """ALAP placement along one path, planned backward from the deadline.

        Returns per hop the GB leaving its tail at each window offset
        ``i`` (slot ``release + i``).  Hop ``h`` (0-based, of ``L``) may
        use offsets ``[h, T - (L - h)]``.  Hops are planned in reverse:
        the last owes the whole file by the deadline; each earlier one
        owes, by offset ``i - 1``, what the next sends at ``i``
        (store-and-forward precedence).  Within a hop the dues go to the
        latest admissible slots — paid headroom first when
        ``headroom_first`` — so early slots stay free for future arrivals.
        """
        hops, span, size = len(hop_rows), request.deadline_slots, request.size_gb
        passes = _PASSES[self._reserving, headroom_first]
        sends = [None] * hops
        h, due = hops - 1, span - 1
        # Whole-file hops, last first (the ALAP diagonal when the first
        # pass has room there): the hop before owes the file one offset
        # earlier.  From the first hop it does not fit, every hop sweeps.
        if size > max(VOLUME_ATOL, 1e-9 * size):
            while h >= 0:
                i = _whole_cell(hop_rows[h], h, due, size, passes)
                if i is None:
                    break
                sent = sends[h] = [0.0] * span
                sent[i] = size
                h, due = h - 1, i - 1
        dues = [(due, size)]
        for h in range(h, -1, -1):
            hi = span - hops + h
            sent = _alap_hop(hop_rows[h], h, hi, dues, span, passes)
            if sent is None:
                return None
            sends[h] = sent
            # What leaves hop h at offset i is owed by hop h - 1 at i - 1.
            dues = [(i - 1, sent[i]) for i in range(hi, h - 1, -1) if sent[i] > 0.0]
        return sends


def _alap_hop(
    rows: LinkRows, lo: int, hi: int, dues: List[Tuple[int, float]],
    width: int, passes: Sequence[Tuple[bool, bool]],
) -> Optional[List[float]]:
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
    :meth:`LinkRows.room`, inlined; a single due whose first placement
    takes it whole (:func:`_whole_cell`) never builds the allowances.
    Returns the ``width`` per-offset sends, or ``None`` if the window
    cannot carry the dues.
    """
    if lo > hi:
        return None
    total = 0.0
    for _, volume in dues:
        total += volume
    tol = max(VOLUME_ATOL, 1e-9 * total)
    sent = [0.0] * width
    if total <= tol:
        return sent
    if len(dues) == 1:
        i = _whole_cell(rows, lo, dues[0][0], total, passes)
        if i is not None:
            sent[i] = total
            return sent
    # late[i]: what may leave at offset i or later: total - dues below i, top-down.
    late = [total] * width
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
                            return sent
                        placed = above + sent[i]
            above = placed
        filled = [m for m in range(hi, lo - 1, -1) if sent[m] > 0.0]
    return None


def _whole_cell(
    rows: LinkRows, lo: int, due: int, size: float,
    passes: Sequence[Tuple[bool, bool]],
) -> Optional[int]:
    """Where :func:`_alap_hop` puts a single due of ``size`` GB (above the
    tolerance) whole; ``None`` if its first placement takes less, or it
    places nothing.  Nothing may park above ``due`` and, until the sweep
    places, every pass reads the rows as they are: its first placement is
    ``min(room, size)`` at the first cell, pass by pass from ``due`` down,
    whose room (computed as the sweep does) exceeds the tolerance."""
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
                    return i if room >= size else None
    return None


def _bill_increase(hop_rows: Sequence[LinkRows], sends: List[List[float]]) -> float:
    """Bill increase if ``sends`` joined the committed + pending load."""
    cost = 0.0
    for rows, sent in zip(hop_rows, sends):
        committed, pending, charged = rows.committed, rows.pending, rows.charged
        over = 0.0
        for i, volume in enumerate(sent):
            if volume > 0.0:
                lift = volume + committed[i] + pending[i] - charged
                if lift > over:
                    over = lift
        if over > 0.0:
            cost += rows.price * over
    return cost


def _emit(
    request: TransferRequest, path: List[int], sends: List[List[float]]
) -> Tuple[List[ScheduleEntry], float]:
    """One transit entry per hop and slot that sends, and the GB-slots the
    file waits: what sits at a hop's tail before it departs, summed over
    the waiting slots in hop, then slot order."""
    rid, release = request.request_id, request.release_slot
    entries: List[ScheduleEntry] = []
    stored = 0.0
    # Every hop sends in one cell: what arrived waits whole until it
    # leaves, added once per slot as the walk below adds it.
    if all(sent.count(0.0) == len(sent) - 1 for sent in sends):
        arrived_at, arrived = 0, request.size_gb
        for h, sent in enumerate(sends):
            volume = max(sent)
            i = sent.index(volume)
            entries.append(ScheduleEntry(rid, path[h], path[h + 1], release + i, volume))
            if arrived > VOLUME_ATOL:
                for _ in range(arrived_at, i):
                    stored += arrived
            arrived_at, arrived = i + 1, volume
        return entries, stored
    arrivals = [request.size_gb] + [0.0] * request.deadline_slots
    for h, sent in enumerate(sends):
        moving = [i for i, volume in enumerate(sent) if volume > 0.0]
        if moving:
            src, dst, last_action = path[h], path[h + 1], moving[-1]
            start = next((i for i in range(moving[0]) if arrivals[i] > 0.0), moving[0])
            buffered = 0.0
            for i in range(start, last_action + 1):
                buffered += arrivals[i]
                if sent[i] > 0.0:
                    entries.append(ScheduleEntry(rid, src, dst, release + i, sent[i]))
                    buffered -= sent[i]
                if buffered > VOLUME_ATOL and i < last_action:
                    stored += buffered
        arrivals = [0.0] + sent
    return entries, stored
