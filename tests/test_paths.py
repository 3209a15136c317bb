"""Unit tests for path decomposition of schedules."""

import pytest

from repro.errors import SchedulingError
from repro.core import PostcardScheduler, decompose_paths
from repro.core.paths import TimedPath
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.net.generators import complete_topology, fig1_topology, fig3_topology
from repro.traffic import TransferRequest


def test_timed_path_properties():
    path = TimedPath(((2, 0), (1, 1), (1, 2), (3, 3)), 3.0)
    assert path.hop_count == 2
    assert path.storage_slots == 1
    assert path.departure_slot == 0
    assert path.arrival_slot == 3
    text = path.describe()
    assert "2->1" in text and "hold@1" in text and "1->3" in text


def test_fig1_decomposition():
    scheduler = PostcardScheduler(fig1_topology(), horizon=100)
    request = TransferRequest(2, 3, 6.0, 3, release_slot=0)
    schedule = scheduler.on_slot(0, [request])
    paths = decompose_paths(schedule, request)
    assert sum(p.volume for p in paths) == pytest.approx(6.0)
    # All volume relays via DC 1.
    for path in paths:
        dcs = [node[0] for node in path.nodes]
        assert dcs[0] == 2 and dcs[-1] == 3
        assert 1 in dcs


def test_fig3_decomposition_shows_storage():
    scheduler = PostcardScheduler(fig3_topology(), horizon=100)
    file1 = TransferRequest(2, 4, 8.0, 4, release_slot=0)
    file2 = TransferRequest(1, 4, 10.0, 2, release_slot=0)
    schedule = scheduler.on_slot(0, [file1, file2])

    paths1 = decompose_paths(schedule, file1)
    assert sum(p.volume for p in paths1) == pytest.approx(8.0)
    assert any(p.storage_slots > 0 for p in paths1)

    paths2 = decompose_paths(schedule, file2)
    assert sum(p.volume for p in paths2) == pytest.approx(10.0)
    # File 2 goes direct 1 -> 4 with no time to spare.
    for path in paths2:
        assert path.hop_count == 1


def test_deadlines_respected_in_paths():
    topo = complete_topology(5, capacity=30.0, seed=3)
    scheduler = PostcardScheduler(topo, horizon=50)
    requests = [
        TransferRequest(0, 1, 25.0, 3, release_slot=0),
        TransferRequest(1, 2, 25.0, 4, release_slot=0),
    ]
    schedule = scheduler.on_slot(0, requests)
    for request in requests:
        for path in decompose_paths(schedule, request):
            assert path.departure_slot >= request.release_slot
            assert path.arrival_slot <= request.release_slot + request.deadline_slots


def test_undelivered_schedule_rejected():
    request = TransferRequest(0, 2, 6.0, 3, release_slot=0)
    partial = TransferSchedule(
        [ScheduleEntry(request.request_id, 0, 1, 0, 6.0)]
    )
    with pytest.raises(SchedulingError, match="not fully"):
        decompose_paths(partial, request)


def test_two_parallel_paths():
    request = TransferRequest(0, 2, 8.0, 2, release_slot=0)
    rid = request.request_id
    schedule = TransferSchedule(
        [
            # 4 GB via node 1, 4 GB direct later.
            ScheduleEntry(rid, 0, 1, 0, 4.0),
            ScheduleEntry(rid, 1, 2, 1, 4.0),
            ScheduleEntry(rid, 0, 2, 1, 4.0),  # waited at 0 over slot 0
        ]
    )
    paths = decompose_paths(schedule, request)
    assert sum(p.volume for p in paths) == pytest.approx(8.0)
    hop_counts = sorted(p.hop_count for p in paths)
    assert hop_counts == [1, 2]
