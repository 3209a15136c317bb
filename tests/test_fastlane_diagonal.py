"""The fast lane's one-cell hops and sparse plans against the dense sweep.

``FastLaneScheduler._place`` gives every single due to ``_whole_cell``
first, which lands it in the one cell the sweep would — the whole due at
the sweep's first placement (the ALAP diagonal, hop ``h`` of ``L`` at
offset ``span - L + h``, when the first pass has room there), or a paid
part topped up there by the plain pass — and sweeps only the rest.
:func:`sweep_place` below is the placement as it was before them (every
hop swept, no shortcut, dense rows); on random rows (committed, pending,
paid peaks, gated zeros, reservation rows) and random files (1–4 hops,
spans up to the horizon, sizes at the volume tolerance, rooms equal to
the size or paid in part) both must place the same volumes bit for bit,
read through ``tests/plan_reference.py``'s converter, for both
``headroom_first`` values, reserving on and off.  :func:`walk_emit` is
``_emit``'s buffer walk over dense rows; the emitted entries and
GB-slots of waiting must match it bit for bit too.
"""
from __future__ import annotations

import math
import os
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import ScheduleEntry
from repro.heuristic import FastLaneScheduler, fastlane
from repro.heuristic.tracker import LinkRows
from repro.net.topology import Datacenter, Link, Topology
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL
from tests.plan_reference import dense

#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "10"))

HORIZON = 8


def sweep_place(reserving, hop_rows, request, headroom_first):
    """``_place`` with every hop swept from its dues (no diagonal)."""
    hops, span = len(hop_rows), request.deadline_slots
    passes = fastlane._PASSES[reserving, headroom_first]
    dues = [(span - 1, request.size_gb)]
    sends = [None] * hops
    for h in range(hops - 1, -1, -1):
        hi = span - hops + h
        sent = sweep_hop(hop_rows[h], h, hi, dues, span, passes)
        if sent is None:
            return None
        sends[h] = sent
        dues = [(i - 1, sent[i]) for i in range(hi, h - 1, -1) if sent[i] > 0.0]
    return sends


def sweep_hop(
    rows: LinkRows, lo: int, hi: int, dues: List[Tuple[int, float]],
    width: int, passes: Sequence[Tuple[bool, bool]],
) -> Optional[List[float]]:
    """``_alap_hop`` without the single-due step: the general sweep."""
    if lo > hi:
        return None
    total = 0.0
    for _, volume in dues:
        total += volume
    tol = max(VOLUME_ATOL, 1e-9 * total)
    sent = [0.0] * width
    if total <= tol:
        return sent
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
    filled: List[int] = []
    for free, reserved in passes:
        above = 0.0
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


def walk_emit(request, path, sends):
    """``_emit``'s buffer walk, taken for every plan."""
    rid, release = request.request_id, request.release_slot
    entries: List[ScheduleEntry] = []
    stored = 0.0
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


#: Quarter-GB steps add and subtract exactly, so rooms land on sizes.
_GRID = st.integers(0, 48).map(lambda n: n / 4)
_VOLUME = _GRID | st.floats(0.0, 30.0)
_TOLERANT = st.sampled_from([
    VOLUME_ATOL, math.nextafter(VOLUME_ATOL, 0.0),
    math.nextafter(VOLUME_ATOL, 1.0), 1e-7, 2e-6,
])


def _row(cells):
    return st.lists(cells, min_size=HORIZON, max_size=HORIZON)


@st.composite
def _cases(draw):
    """Rows for each hop of a path, a file that may fit them exactly, and
    whether the slot reserves."""
    hops = draw(st.integers(1, 4))
    span = draw(st.integers(1, HORIZON))
    size = draw(st.one_of(_GRID.filter(bool), st.floats(0.01, 30.0), _TOLERANT))
    reserving = draw(st.booleans())
    hop_rows = []
    for h in range(hops):
        committed = draw(_row(_VOLUME))
        pending = draw(_row(_GRID | st.just(0.0)))
        residual = draw(_row(st.just(0.0) | _VOLUME))  # gated zeros
        charged = draw(_VOLUME)
        reserved = draw(_row(_GRID)) if reserving else None
        diagonal = span - hops + h
        if 0 <= diagonal and draw(st.booleans()):
            # The room on the diagonal is the size (to the bit on the grid).
            held = reserved[diagonal] if reserving else 0.0
            residual[diagonal] = pending[diagonal] + size + held
            paid = draw(st.sampled_from(["none", "whole", "part"]))
            if paid == "whole":
                charged = committed[diagonal] + pending[diagonal] + size + held
            elif paid == "part":  # the paid pass takes part, the plain pass the rest
                charged = committed[diagonal] + pending[diagonal] + draw(_GRID) + held
        hop_rows.append(LinkRows(
            capacity=30.0, price=1.0, charged=charged, reserved=reserved,
            residual=residual, committed=committed, pending=pending,
        ))
    request = TransferRequest(0, hops, size, span, release_slot=0)
    return reserving, hop_rows, request


def _scheduler():
    nodes = [Datacenter(i) for i in range(5)]
    links = [Link(a, a + 1, capacity=30.0, price=1.0) for a in range(4)]
    return FastLaneScheduler(Topology(nodes, links), HORIZON)


def _bits(sends):
    return None if sends is None else [[volume.hex() for volume in sent] for sent in sends]


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(case=_cases(), headroom_first=st.booleans())
def test_the_diagonal_places_what_the_sweep_places(case, headroom_first):
    reserving, hop_rows, request = case
    scheduler = _scheduler()
    scheduler._reserving = reserving
    placed = dense(scheduler._place(hop_rows, request, headroom_first), request.deadline_slots)
    assert _bits(placed) == _bits(sweep_place(reserving, hop_rows, request, headroom_first))


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(case=_cases(), headroom_first=st.booleans())
def test_single_cell_emit_is_the_buffer_walk(case, headroom_first):
    reserving, hop_rows, request = case
    scheduler = _scheduler()
    scheduler._reserving = reserving
    sends = scheduler._place(hop_rows, request, headroom_first)
    if sends is None or not sends[-1]:
        return
    path = list(range(len(sends) + 1))
    entries, stored = fastlane._emit(request, path, sends)
    expected, expected_stored = walk_emit(request, path, dense(sends, request.deadline_slots))
    assert [(*entry[:4], entry[4].hex()) for entry in entries] == [
        (*entry[:4], entry[4].hex()) for entry in expected
    ]
    assert stored.hex() == expected_stored.hex()
