"""Unit tests for trace and schedule serialization."""

from pathlib import Path

import pytest

from repro.errors import WorkloadError
from repro.core.schedule import (
    SEMANTICS_FLUID,
    ScheduleEntry,
    TransferSchedule,
)
from repro.traffic import TransferRequest
from repro.traffic.io import (
    load_requests,
    load_schedule,
    requests_from_json,
    requests_to_json,
    save_requests,
    save_schedule,
    schedule_from_json,
    schedule_to_json,
)
from tests.schedule_reference import storage_slot_volumes

DATA = Path(__file__).parent / "data"


def sample_requests():
    return [
        TransferRequest(0, 1, 10.0, 2, release_slot=0),
        TransferRequest(2, 3, 55.5, 4, release_slot=3),
    ]


def test_request_round_trip():
    original = sample_requests()
    restored = requests_from_json(requests_to_json(original))
    assert len(restored) == 2
    for a, b in zip(original, restored):
        assert (a.source, a.destination, a.size_gb, a.deadline_slots, a.release_slot) == (
            b.source, b.destination, b.size_gb, b.deadline_slots, b.release_slot
        )
    # Fresh ids are assigned on load.
    assert restored[0].request_id != original[0].request_id


def test_request_file_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    save_requests(sample_requests(), path)
    restored = load_requests(path)
    assert len(restored) == 2


def test_request_errors():
    with pytest.raises(WorkloadError, match="JSON"):
        requests_from_json("{nope")
    with pytest.raises(WorkloadError, match="not a postcard trace"):
        requests_from_json('{"kind": "grocery-list"}')
    with pytest.raises(WorkloadError, match="version"):
        requests_from_json('{"kind": "postcard-trace", "version": 99}')
    with pytest.raises(WorkloadError, match="missing field"):
        requests_from_json(
            '{"kind": "postcard-trace", "version": 1, "requests": [{"source": 0}]}'
        )


def test_schedule_round_trip():
    schedule = TransferSchedule(
        [ScheduleEntry(7, 0, 1, 2, 3.5), ScheduleEntry(7, 1, 2, 4, 3.5)],
        stored=[(7, 3.5)],
    )
    restored = schedule_from_json(schedule_to_json(schedule))
    assert restored.semantics == schedule.semantics
    assert restored.entries == schedule.entries
    assert restored.stored == schedule.stored
    assert restored.total_storage_volume() == pytest.approx(3.5)


def test_a_schedule_with_holdover_rows_still_loads():
    # Written when every waiting slot was a "holdover" row: file 41 relays
    # through 1 and waits there two slots, file 42 waits a slot at its
    # source, and its transit row predates the "kind" field.
    relay = TransferRequest(0, 2, 4.0, 4, release_slot=0, request_id=41)
    direct = TransferRequest(0, 2, 1.5, 2, release_slot=0, request_id=42)
    schedule = load_schedule(DATA / "holdover_schedule_v1.json")
    assert [tuple(e) for e in schedule.entries] == [
        (41, 0, 1, 0, 4.0), (41, 1, 2, 3, 4.0), (42, 0, 2, 1, 1.5),
    ]
    assert schedule.stored == [(41, 4.0), (41, 4.0), (42, 1.5)]
    schedule.validate([relay, direct])
    assert storage_slot_volumes(schedule, [relay, direct]) == {
        (1, 1): 4.0, (1, 2): 4.0, (0, 0): 1.5,
    }
    restored = schedule_from_json(schedule_to_json(schedule))
    assert restored.entries == schedule.entries
    assert restored.stored == schedule.stored


def test_fluid_schedule_round_trip(tmp_path):
    schedule = TransferSchedule(
        [ScheduleEntry(1, 0, 1, 0, 2.0)], semantics=SEMANTICS_FLUID
    )
    path = tmp_path / "schedule.json"
    save_schedule(schedule, path)
    restored = load_schedule(path)
    assert restored.semantics == SEMANTICS_FLUID


def test_schedule_errors():
    with pytest.raises(WorkloadError, match="JSON"):
        schedule_from_json("[")
    with pytest.raises(WorkloadError, match="not a postcard schedule"):
        schedule_from_json('{"kind": "postcard-trace"}')
    with pytest.raises(WorkloadError, match="semantics"):
        schedule_from_json(
            '{"kind": "postcard-schedule", "version": 1, "semantics": "quantum"}'
        )
    with pytest.raises(WorkloadError, match="missing field"):
        schedule_from_json(
            '{"kind": "postcard-schedule", "version": 1, "entries": [{"src": 0}]}'
        )


def test_trace_replays_identically(tmp_path):
    """A saved trace replayed through a scheduler matches the original."""
    from repro.core import PostcardScheduler
    from repro.net.generators import complete_topology
    from repro.sim import Simulation
    from repro.traffic import PaperWorkload, TraceWorkload

    topo = complete_topology(4, capacity=40.0, seed=1)
    workload = PaperWorkload(topo, max_deadline=3, max_files=3, seed=5)
    requests = workload.all_requests(3)
    path = tmp_path / "day.json"
    save_requests(requests, path)

    def run(reqs):
        scheduler = PostcardScheduler(topo, horizon=20, on_infeasible="drop")
        result = Simulation(scheduler, TraceWorkload(reqs), 3).run()
        return result.final_cost_per_slot

    assert run(requests) == pytest.approx(run(load_requests(path)))
