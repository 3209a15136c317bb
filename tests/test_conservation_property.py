"""The running-balance audit refuses exactly what the explicit one refuses.

:meth:`TransferSchedule.validate` checks store-and-forward conservation
with waiting implied: a running balance per datacenter.  The oracle
(``tests/conservation_oracle.py``) is the check it replaced, which
balanced every time-expanded node over explicit holdover entries.  A
generated schedule sends each file along random paths with random waits;
the oracle gets the holdovers its transmissions imply.  The schedule is
then maybe broken in one of four ways — a hop departs before its data
arrives, a node keeps leftover volume, the destination re-emits, or the
file is under- or over-delivered — and both audits must accept and
refuse alike.  The GB-slots ``schedule_reference.storage_slot_volumes``
derives must equal the oracle's holdovers away from the destination.
"""

import os
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.errors import SchedulingError
from repro.traffic import TransferRequest
from tests.conservation_oracle import check_conservation, derive_holdovers
from tests.schedule_reference import storage_slot_volumes

#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
EXAMPLES = int(os.environ.get("CONSERVATION_EXAMPLES", "30"))

NODES = 5
MUTATIONS = (None, "early", "leftover", "reemit", "delivery")


@st.composite
def _files(draw):
    """One file: a release, a deadline and, per chunk, a simple path with
    a departure slot per hop that leaves after the data arrived."""
    source, destination = draw(
        st.lists(st.integers(0, NODES - 1), min_size=2, max_size=2, unique=True)
    )
    release = draw(st.integers(0, 3))
    deadline = draw(st.integers(3, 7))
    rows = []
    size = 0.0
    for _ in range(draw(st.integers(1, 3))):
        relays = draw(st.lists(
            st.sampled_from([n for n in range(NODES) if n not in (source, destination)]),
            max_size=min(2, deadline - 1), unique=True,
        ))
        path = [source, *relays, destination]
        hops = len(path) - 1
        volume = float(draw(st.integers(1, 8)))
        slot = release - 1
        for h in range(hops):
            # Leave no earlier than the arrival, late enough for the rest.
            slot = draw(st.integers(slot + 1, release + deadline - hops + h))
            rows.append((path[h], path[h + 1], slot, volume))
        size += volume
    request = TransferRequest(source, destination, size, deadline, release_slot=release)
    return request, rows


@st.composite
def _schedules(draw):
    files = draw(st.lists(_files(), min_size=1, max_size=3))
    mutation = draw(st.sampled_from(MUTATIONS))
    victim = draw(st.integers(0, len(files) - 1))
    request, rows = files[victim]
    rows = list(rows)
    first, last = request.release_slot, request.last_slot
    if mutation == "early":  # a relay sends before its hop's data lands
        relayed = [i for i, row in enumerate(rows) if row[0] != request.source]
        if relayed:
            # A chunk's hops are consecutive rows: row i - 1 feeds row i.
            i = draw(st.sampled_from(relayed))
            src, dst, _, volume = rows[i]
            rows[i] = (src, dst, draw(st.integers(first, rows[i - 1][2])), volume)
        else:
            mutation = None
    elif mutation == "leftover":  # a node forwards less than it received
        i = draw(st.integers(0, len(rows) - 1))
        src, dst, slot, volume = rows[i]
        rows[i] = (src, dst, slot, volume / 2)
    elif mutation == "reemit":  # the destination sends on, maybe after arrival
        other = draw(st.sampled_from([n for n in range(NODES) if n != request.destination]))
        out = draw(st.integers(first, last))
        volume = float(draw(st.integers(1, 4)))
        rows.append((request.destination, other, out, volume))
        if out < last and draw(st.booleans()):  # ... and gets it back
            rows.append((other, request.destination, draw(st.integers(out + 1, last)), volume))
    elif mutation == "delivery":  # one chunk's hops all scaled
        factor = draw(st.sampled_from([0.5, 1.5]))
        rows = [(s, d, n, v * factor) for s, d, n, v in rows]
    files[victim] = (request, rows)
    return files, mutation


def _refusal(check):
    try:
        check()
    except SchedulingError as exc:
        return str(exc)
    return None


@settings(max_examples=EXAMPLES, deadline=None)
@given(_schedules())
def test_the_running_balance_refuses_what_the_explicit_audit_refuses(case):
    files, mutation = case
    requests = [request for request, _ in files]
    entries = [
        ScheduleEntry(request.request_id, src, dst, slot, volume)
        for request, rows in files for src, dst, slot, volume in rows
    ]
    schedule = TransferSchedule(entries)

    def oracle():
        for request, rows in files:
            transits = [(request.request_id, *row) for row in rows]
            check_conservation(request, transits + derive_holdovers(request, transits))
            delivered = schedule.delivered_volume(request)
            if abs(delivered - request.size_gb) > max(1e-5, 1e-5 * request.size_gb):
                raise SchedulingError(f"file {request.request_id} delivers {delivered}")

    refused = _refusal(lambda: schedule.validate(requests))
    expected = _refusal(oracle)
    assert (refused is None) == (expected is None), (refused, expected)
    if mutation is None:
        assert refused is None
    elif mutation in ("leftover", "delivery"):
        assert refused is not None

    if refused is None:
        waits = defaultdict(float)
        for request, rows in files:
            transits = [(request.request_id, *row) for row in rows]
            for _, node, _, slot, volume in derive_holdovers(request, transits):
                if node != request.destination:
                    waits[(node, slot)] += volume
        derived = storage_slot_volumes(schedule, requests)
        assert derived.keys() == waits.keys()
        for key, volume in waits.items():
            assert derived[key] == pytest.approx(volume)
