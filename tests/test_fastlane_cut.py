"""The fast lane's candidate cut against the exhaustive search.

``CandidatePathScheduler._plan_file`` skips every candidate with at
least as many hops as a plan that already costs nothing: such a
candidate can only tie it, and neither the fast lane's ``_beats``
(``(cost, hops)`` lexicographic) nor greedy's (strictly cheaper by
1e-12) lets a tie win.  :func:`exhaustive_plan_file` below places and
costs every candidate, as the search did before the cut; both must pick
the same path, the same per-hop sends bit for bit, and leave the same
pending rows, request after request, for the fast lane (forecast
reservations on and off) and for the greedy baseline.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GreedyStoreAndForwardScheduler
from repro.heuristic import FastLaneScheduler, fastlane
from repro.net.topology import Datacenter, Link, Topology
from repro.traffic.spec import TransferRequest
from tests.plan_reference import dense

#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "10"))

HORIZON = 12


def exhaustive_plan_file(scheduler, request):
    """Every candidate placed and costed, no cut: ``(path, sends)`` of
    the winner, which the scheduler's ``_hold`` counts against the rest
    of the batch, or ``None``."""
    candidates = scheduler._paths.candidates(
        request.source, request.destination, request.deadline_slots,
        schedule=scheduler.state.link_schedule,
        window=(request.release_slot, request.last_slot + 1),
    )
    rows_of, last = scheduler.tracker.rows, request.last_slot
    best = None
    for path in candidates:
        hop_rows = [rows_of(a, b, last) for a, b in zip(path, path[1:])]
        sends = scheduler._sends(hop_rows, request)
        if sends is None or not any(sends[-1]):
            continue
        cost = fastlane._bill_increase(hop_rows, sends)
        if best is None or scheduler._beats(cost, path, best):
            best = (cost, len(path), path, hop_rows, sends)
    if best is None:
        return None
    _, _, path, hop_rows, sends = best
    scheduler._hold(hop_rows, sends)
    return path, sends


@st.composite
def _cases(draw):
    """A topology with tied and skewed prices (so shorter paths can rank
    after longer ones), a ledger of committed volumes and paid peaks, an
    optional forecast reservation table, and a slot of requests."""
    nodes = draw(st.integers(3, 5))
    pairs = [(a, b) for a in range(nodes) for b in range(nodes) if a != b]
    links = []
    for a, b in pairs:
        if draw(st.integers(0, 4)):  # one link in five is missing
            links.append(Link(
                a, b, capacity=draw(st.sampled_from([4.0, 10.0, 25.0])),
                price=draw(st.sampled_from([1.0, 2.0, 5.0, 11.0])),
            ))
    committed = {
        (link.src, link.dst, slot): draw(st.floats(0.0, link.capacity))
        for link in links
        for slot in draw(st.sets(st.integers(0, HORIZON - 1), max_size=4))
    }
    paid = {link.key: draw(st.sampled_from([0.0, 5.0, 12.0])) for link in links}
    reservations = None
    if draw(st.booleans()):
        reservations = {
            (link.src, link.dst, slot): draw(st.floats(0.0, 5.0))
            for link in links
            for slot in draw(st.sets(st.integers(0, HORIZON - 1), max_size=3))
        }
    release = draw(st.integers(0, 2))
    requests = [
        TransferRequest(
            src, dst, draw(st.floats(0.05, 4.0) | st.floats(4.0, 30.0)),
            draw(st.integers(1, 5)), release_slot=release,
        )
        for src, dst in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
    ]
    return nodes, links, committed, paid, reservations, release, requests


def _scheduler(kind, nodes, links, committed, paid, reservations, release):
    topology = Topology([Datacenter(i) for i in range(nodes)], links)
    if kind == "fast":
        scheduler = FastLaneScheduler(topology, HORIZON, on_infeasible="drop")
    else:
        scheduler = GreedyStoreAndForwardScheduler(
            topology, HORIZON, on_infeasible="drop"
        )
    state = scheduler.state
    for (src, dst, slot), volume in committed.items():
        state.ledger.record(src, dst, slot, volume)
    for key, volume in paid.items():
        state._charged[key] = max(volume, state.ledger.usage(*key).peak())
    if reservations is not None:
        scheduler.tracker.reservation = lambda src, dst, start, committed: [
            reservations.get((src, dst, start + i), 0.0) for i in range(len(committed))
        ]
        scheduler._reserving = kind == "fast"
    scheduler.tracker.reset(release)
    return scheduler


def _pending(scheduler):
    """Every cell the batch's winners hold — as pending load, or folded
    into the committed row (greedy) — with its residual and the link's
    charged peak, as exact bits."""
    state, base, held = scheduler.state, scheduler.tracker._base, {}
    for (src, dst), rows in scheduler.tracker._rows.items():
        cells = [
            (i, pending.hex(), rows.committed[i].hex(), rows.residual[i].hex())
            for i, pending in enumerate(rows.pending)
            if pending or rows.committed[i] != state.committed_volume(src, dst, base + i)
        ]
        if cells:
            held[(src, dst)] = [rows.charged.hex()] + cells
    return held


def _bits(sends, width):
    return [[volume.hex() for volume in sent] for sent in dense(sends, width)]


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(case=_cases(), kind=st.sampled_from(["fast", "greedy"]))
def test_the_cut_search_picks_what_the_exhaustive_search_picks(case, kind):
    cut, oracle = _scheduler(kind, *case[:-1]), _scheduler(kind, *case[:-1])
    emit, emitted = fastlane._emit, []

    def spy(request, path, sends):
        emitted.append((path, sends))
        return emit(request, path, sends)

    fastlane._emit = spy
    try:
        for request in case[-1]:
            emitted.clear()
            entries = cut._plan_file(request)
            expected = exhaustive_plan_file(oracle, request)
            if expected is None:
                assert entries is None and not emitted
            else:
                [(path, sends)] = emitted
                assert path == expected[0]
                width = request.deadline_slots
                assert _bits(sends, width) == _bits(expected[1], width)
            cut_pending, oracle_pending = _pending(cut), _pending(oracle)
            for key in cut_pending.keys() | oracle_pending.keys():
                assert cut_pending.get(key, []) == oracle_pending.get(key, [])
    finally:
        fastlane._emit = emit
