"""Property-based feasibility invariants for optimized schedules.

For random topologies and random request batches, every schedule the
Postcard and flow-based optimizers emit must satisfy: full delivery,
deadline windows, per-link-slot capacity, conservation under its own
semantics, and a cost no worse than trivial upper bounds.

The audit itself is held to the one it replaced
(``tests/schedule_reference.py``): on hand-built slots of chains,
split files and files that send twice in a cell, over books with
committed volume, paid peaks and dark windows, maybe broken one way,
:meth:`TransferSchedule.validate` must raise exactly when the reference
raises, with the same message, and :meth:`NetworkState.commit` must
leave the books as the reference commit leaves them, bit for bit.
"""

import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import InfeasibleError
from repro.core import PostcardScheduler
from repro.core.state import NetworkState
from repro.core.formulation import build_postcard_model
from repro.flowbased.model import build_flow_model
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.net.generators import complete_topology
from repro.net.schedule import LinkSchedule
from repro.net.topology import Datacenter, Link, Topology
from repro.traffic import TransferRequest
from tests import schedule_reference as reference

#: Tier-1 runs a handful of the audit's examples; CI's "Schedule
#: conservation property at depth" step runs 1000.
AUDIT_EXAMPLES = int(os.environ.get("CONSERVATION_EXAMPLES", "30"))


@st.composite
def instances(draw):
    num_dcs = draw(st.integers(3, 5))
    capacity = draw(st.sampled_from([20.0, 40.0, 80.0]))
    seed = draw(st.integers(0, 50))
    count = draw(st.integers(1, 4))
    requests = []
    for _ in range(count):
        src = draw(st.integers(0, num_dcs - 1))
        dst = draw(st.integers(0, num_dcs - 1))
        if dst == src:
            dst = (src + 1) % num_dcs
        size = draw(st.integers(1, 30))
        deadline = draw(st.integers(2, 5))
        requests.append(TransferRequest(src, dst, float(size), deadline, release_slot=0))
    return num_dcs, capacity, seed, requests


@settings(max_examples=25, deadline=None)
@given(instances())
def test_postcard_schedules_are_feasible(instance):
    num_dcs, capacity, seed, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    state = NetworkState(topo, horizon=50)
    built = build_postcard_model(state, requests)
    try:
        schedule, solution = built.solve()
    except InfeasibleError:
        assume(False)
        return
    schedule.validate(requests, capacity_fn=state.residual_capacity)
    for request in requests:
        completion = schedule.completion_slot(request)
        assert completion is not None and completion <= request.last_slot

    # Cost sanity: bounded below by the cheapest-path bound, above by
    # the full direct-burst bound.
    lower = sum(0.0 for _ in requests)  # objective >= 0 trivially
    assert solution.objective >= lower
    upper = sum(
        topo.link(r.source, r.destination).price * r.size_gb for r in requests
    )
    assert solution.objective <= upper + 1e-6


@settings(max_examples=25, deadline=None)
@given(instances())
def test_flow_schedules_are_feasible(instance):
    num_dcs, capacity, seed, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    state = NetworkState(topo, horizon=50)
    built = build_flow_model(state, requests)
    try:
        schedule, _ = built.solve()
    except InfeasibleError:
        assume(False)
        return
    schedule.validate(requests, capacity_fn=state.residual_capacity)


@settings(max_examples=20, deadline=None)
@given(instances())
def test_postcard_cost_at_most_flow_cost_offline(instance):
    """On a cold network with one batch, Postcard's optimum can only be
    at least as good as the flow-based optimum: every constant-rate
    fluid flow along simple paths has a store-and-forward counterpart
    whose per-link peaks are no larger... except that pipelining delays
    can force S&F to concentrate volume when deadlines are tight.  The
    robust invariant is therefore one-sided only for single-hop-
    reachable traffic with slack deadlines; here we assert the weaker
    universal bound: Postcard is never worse than DOUBLE the flow cost
    when both are feasible and deadlines allow at least 2 extra slots
    of slack (empirically tight enough to catch regressions).
    """
    num_dcs, capacity, seed, requests = instance
    # Give everything slack so S&F pipelining is not the bottleneck.
    requests = [
        TransferRequest(r.source, r.destination, r.size_gb, r.deadline_slots + 2)
        for r in requests
    ]
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)

    try:
        s_state = NetworkState(topo, horizon=50)
        _, post_solution = build_postcard_model(s_state, requests).solve()
        f_state = NetworkState(topo, horizon=50)
        _, flow_solution = build_flow_model(f_state, requests).solve()
    except InfeasibleError:
        assume(False)
        return
    assert post_solution.objective <= 2.0 * flow_solution.objective + 1e-6


# -- validate() groups by file in one pass ----------------------------------

#: The defects tests/test_schedule.py enumerates, by the message each raises.
_DEFECTS = ("delivers", "unknown", "outside", "conservation", "capacity")


@st.composite
def slot_plans(draw):
    """Several files' entries interleaved in one schedule, one maybe broken."""
    from repro.core.schedule import ScheduleEntry

    files = []
    for _ in range(draw(st.integers(1, 6))):
        relay = draw(st.booleans())
        size = float(draw(st.integers(1, 9)))
        request = TransferRequest(0, 2, size, draw(st.integers(3, 5)), release_slot=2)
        rid, first = request.request_id, request.release_slot
        if relay:  # 0 -> 1, wait a slot at 1 (implied), 1 -> 2
            entries = [
                ScheduleEntry(rid, 0, 1, first, size),
                ScheduleEntry(rid, 1, 2, first + 2, size),
            ]
        else:
            entries = [ScheduleEntry(rid, 0, 2, first, size)]
        files.append((request, entries))
    defect = draw(st.sampled_from((None,) + _DEFECTS))
    victim, entries = files[draw(st.integers(0, len(files) - 1))]
    last = entries[-1]
    if defect == "delivers":
        entries[-1] = ScheduleEntry(last.request_id, last.src, 2, last.slot, last.volume / 2)
    elif defect == "unknown":
        entries.append(ScheduleEntry(10**9, 0, 2, last.slot, 1.0))
    elif defect == "outside":
        entries[-1] = ScheduleEntry(
            last.request_id, last.src, 2, victim.last_slot + 1, last.volume
        )
    elif defect == "conservation":  # the file teleports: a second copy from node 1
        entries.append(ScheduleEntry(last.request_id, 1, 0, victim.release_slot, 1.0))
    merged = draw(st.permutations([e for _, es in files for e in es]))
    return [request for request, _ in files], merged, defect


@settings(max_examples=80, deadline=None)
@given(slot_plans())
def test_grouped_validate_raises_on_exactly_the_enumerated_defects(plan):
    from repro.errors import SchedulingError
    from repro.core.schedule import TransferSchedule

    requests, entries, defect = plan
    schedule = TransferSchedule(entries)
    load = max(schedule.link_slot_volumes().values())
    capacity = load / 2 if defect == "capacity" else load
    if defect is None:
        schedule.validate(requests, capacity_fn=lambda s, d, n: capacity)
        return
    with pytest.raises(SchedulingError, match=defect):
        schedule.validate(requests, capacity_fn=lambda s, d, n: capacity)


# -- the one-walk audit against the reference ---------------------------------

#: How a generated slot is broken (``None``: it is not).
_MUTANTS = (None, "outside", "short", "over", "conservation", "capacity",
            "unknown", "missing")


@st.composite
def audited_slots(draw):
    """A network, its books and one slot's files, maybe broken one way."""
    nodes = draw(st.integers(3, 5))
    capacity = draw(st.sampled_from([10.0, 25.0, 40.0]))
    release = draw(st.integers(0, 3))
    pairs = [(a, b) for a in range(nodes) for b in range(nodes) if a != b]
    files = []
    for _ in range(draw(st.integers(1, 6))):
        src, dst = draw(st.sampled_from(pairs))
        deadline = draw(st.integers(1, 5))
        size = draw(st.floats(0.01, 8.0))
        request = TransferRequest(src, dst, size, deadline, release_slot=release)
        share = draw(st.sampled_from([1.0, 0.5, 0.3, 0.71]))
        volumes = [size] if share == 1.0 else [size * share, size - size * share]
        twice = draw(st.booleans())  # both parts on one path and slots
        relays = [n for n in range(nodes) if n not in (src, dst)]
        entries = []
        for volume in volumes:
            if not (twice and entries):
                hops = draw(st.integers(1, min(3, deadline)))
                middle = draw(st.lists(st.sampled_from(relays), max_size=hops - 1, unique=True))
                path = [src, *middle, dst]
                slots = sorted(draw(st.lists(
                    st.integers(release, release + deadline - 1),
                    min_size=len(path) - 1, max_size=len(path) - 1, unique=True,
                )))
            entries += [
                ScheduleEntry(request.request_id, a, b, slot, volume)
                for (a, b), slot in zip(zip(path, path[1:]), slots)
            ]
        files.append((request, entries))
    books = {
        (a, b, slot): draw(st.floats(0.0, capacity / 4))
        for a, b in draw(st.lists(st.sampled_from(pairs), max_size=6))
        for slot in draw(st.sets(st.integers(release, release + 5), max_size=3))
    }
    peaks = {pair: draw(st.floats(0.0, capacity / 2)) for pair in
             draw(st.lists(st.sampled_from(pairs), max_size=4))}
    windows = {pair: draw(st.tuples(st.integers(0, 4), st.integers(1, 5))) for pair in
               draw(st.lists(st.sampled_from(pairs), max_size=2))}
    missing = None
    mutant = draw(st.sampled_from(_MUTANTS))
    request, entries = files[draw(st.integers(0, len(files) - 1))]
    rid, first = request.request_id, entries[0]
    if mutant == "outside":
        entries[-1] = entries[-1]._replace(slot=request.last_slot + 1)
    elif mutant == "short":
        entries[-1] = entries[-1]._replace(volume=entries[-1].volume / 2)
    elif mutant == "over":
        entries.append(ScheduleEntry(rid, request.source, request.destination, release, 1.0))
    elif mutant == "conservation":
        if len(entries) > 1 and entries[1].src == first.dst:  # the relay sends too early
            entries[1] = entries[1]._replace(slot=first.slot)
        else:  # the file teleports through a relay in one slot
            relay = next(n for n in range(nodes) if n not in (first.src, first.dst))
            entries[0:1] = [first._replace(dst=relay), first._replace(src=relay)]
    elif mutant == "capacity":
        books[first[1:4]] = capacity - first.volume / 2
    elif mutant == "unknown":
        entries.append(ScheduleEntry(10**9, request.source, request.destination, release, 1.0))
    elif mutant == "missing":
        missing = first[1:3]
    stored = [(r.request_id, draw(st.floats(0.0, 5.0))) for r, _ in files if draw(st.booleans())]
    order = draw(st.permutations([e for _, es in files for e in es]))
    requests = [r for r, _ in files]
    full, per_file = draw(st.booleans()), draw(st.booleans())
    checked = draw(st.booleans()) or mutant not in (None, "short", "unknown")
    return (nodes, capacity, books, peaks, windows, missing,
            requests, TransferSchedule(order, stored=stored), full, per_file, checked)


def _books(nodes, capacity, books, peaks, windows, missing):
    links = [Link(a, b, capacity=capacity, price=1.0 + (a * 7 + b) % 3)
             for a in range(nodes) for b in range(nodes) if a != b and (a, b) != missing]
    state = NetworkState(Topology([Datacenter(n) for n in range(nodes)], links), horizon=50)
    for (src, dst, slot), volume in books.items():
        if (src, dst) != missing:
            state.ledger.record(src, dst, slot, volume)
    for key in state.charged_snapshot():
        state._charged[key] = max(peaks.get(key, 0.0), state.ledger.usage(*key).peak())
    if windows:
        state.link_schedule = LinkSchedule()
        for (src, dst), (start, length) in windows.items():
            state.link_schedule.set_windows(src, dst, [(start, start + length)])
    return state


def _outcome(call):
    try:
        return "ok", call()
    except Exception as error:  # the same type and message, or the same answer
        return type(error).__name__, str(error)


def _bits(state):
    volumes = {key: {slot: gb.hex() for slot, gb in state.ledger.usage(*key).volumes.items()}
               for key in state.charged_snapshot()}
    peaks = {key: gb.hex() for key, gb in state.charged_snapshot().items()}
    return volumes, peaks, dict(state.completions), state.storage_used.hex()


@settings(max_examples=AUDIT_EXAMPLES, deadline=None)
@given(audited_slots())
def test_the_one_walk_audit_and_commit_match_the_reference(slot):
    *network, requests, schedule, full, per_file, checked = slot
    state = _books(*network)
    expected = _outcome(lambda: reference.validate(
        schedule, requests, capacity_fn=state.residual_capacity,
        require_full_delivery=full))
    found = _outcome(lambda: schedule.validate(
        requests, capacity_fn=state.residual_capacity, require_full_delivery=full))
    if expected[0] == "ok":
        assert found[0] == "ok" and dict(found[1]) == expected[1]
    else:
        assert found == expected

    ours, theirs = _books(*network), _books(*network)
    before = _bits(ours)
    committed = _outcome(lambda: ours.commit(
        schedule, requests, validate=checked, per_file=per_file))
    assert committed == _outcome(lambda: reference.commit(
        theirs, schedule, requests, validate_first=checked, per_file=per_file))
    if committed[0] == "ok":
        assert _bits(ours) == _bits(theirs)
    elif checked:  # a refused slot leaves the books as they were
        assert _bits(ours) == before
