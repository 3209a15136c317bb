"""Unit tests for TransferSchedule and its feasibility audits."""

import pickle

import pytest

from repro.errors import SchedulingError
from repro.core.schedule import (
    SEMANTICS_FLUID,
    ScheduleEntry,
    TransferSchedule,
)
from repro.traffic import TransferRequest
from tests.schedule_reference import group_by_request, storage_slot_volumes


def move(rid, src, dst, slot, vol):
    return ScheduleEntry(rid, src, dst, slot, vol)


def test_entry_validation():
    with pytest.raises(SchedulingError):
        ScheduleEntry(1, 0, 1, 0, -1.0)
    with pytest.raises(SchedulingError):
        ScheduleEntry(1, 0, 0, 0, 1.0)  # waiting is implied, never an entry
    with pytest.raises(TypeError):
        ScheduleEntry(1, 0, 1, 0, 1.0, "transit")  # an entry has no kind


def test_entry_contract():
    """An entry is an immutable value: one transmission, hashable,
    picklable, serialisable, built positionally or by keyword."""
    entry = ScheduleEntry(request_id=7, src=0, dst=1, slot=2, volume=3.5)
    assert entry._fields == ("request_id", "src", "dst", "slot", "volume")
    assert entry == move(7, 0, 1, 2, 3.5)
    assert hash(entry) == hash(move(7, 0, 1, 2, 3.5))
    with pytest.raises(AttributeError):
        entry.volume = 1.0
    with pytest.raises(SchedulingError, match="negative volume"):
        ScheduleEntry(request_id=7, src=0, dst=1, slot=2, volume=-0.5)
    with pytest.raises(SchedulingError, match="implied"):
        ScheduleEntry(request_id=7, src=1, dst=1, slot=2, volume=3.5)
    restored = pickle.loads(pickle.dumps(entry))
    assert restored == entry and type(restored) is ScheduleEntry
    # The wait at 1 over slot 3 is implied; its GB-slots ride as a number.
    schedule = TransferSchedule([entry, move(7, 1, 2, 4, 3.5)], stored=[(7, 3.5)])
    assert schedule.total_storage_volume() == 3.5


def test_validate_returns_the_per_file_groups():
    r1 = TransferRequest(0, 2, 3.0, 3, release_slot=0)
    r2 = TransferRequest(0, 1, 1.0, 2, release_slot=0)
    schedule = TransferSchedule([
        move(r1.request_id, 0, 1, 0, 3.0),
        move(r2.request_id, 0, 1, 1, 1.0),  # waits at its source over slot 0
        move(r1.request_id, 1, 2, 1, 3.0),
    ])
    groups = schedule.validate([r1, r2])
    assert groups == group_by_request(schedule)


def test_semantics_validation():
    with pytest.raises(SchedulingError):
        TransferSchedule([], semantics="quantum")


def test_zero_volume_entries_dropped():
    schedule = TransferSchedule([move(1, 0, 1, 0, 0.0)])
    assert len(schedule) == 0
    assert not schedule


def test_aggregations():
    relay = TransferRequest(0, 2, 3.0, 4, release_slot=0)
    rid = relay.request_id
    schedule = TransferSchedule(
        [
            move(rid, 0, 1, 1, 3.0),
            move(rid + 1, 0, 1, 1, 2.0),
            move(rid, 1, 2, 3, 3.0),
        ],
        stored=[(rid, 3.0), (rid, 6.0)],
    )
    assert schedule.link_slot_volumes() == {(0, 1, 1): 5.0, (1, 2, 3): 3.0}
    # The relay waits a slot at its source, then a slot at 1 (it lands
    # there at 2 and leaves at 3); the other file is not listed, so its source
    # holds nothing before its first departure.
    assert storage_slot_volumes(schedule, [relay]) == {(0, 0): 3.0, (1, 2): 3.0}
    assert storage_slot_volumes(schedule) == {(1, 2): 3.0}
    assert schedule.total_transit_volume() == 8.0
    assert schedule.total_storage_volume() == 9.0
    assert len(schedule.entries_for_request(rid)) == 2


def test_delivered_volume_and_completion():
    request = TransferRequest(0, 2, 6.0, 3, release_slot=0)
    rid = request.request_id
    schedule = TransferSchedule(
        [
            move(rid, 0, 1, 0, 6.0),
            move(rid, 1, 2, 1, 3.0),
            move(rid, 1, 2, 2, 3.0),  # the other half waits at 1 over slot 1
        ]
    )
    assert schedule.delivered_volume(request) == pytest.approx(6.0)
    assert schedule.completion_slot(request) == 2


def test_completion_none_when_undelivered():
    request = TransferRequest(0, 2, 6.0, 3)
    schedule = TransferSchedule([move(request.request_id, 0, 1, 0, 6.0)])
    assert schedule.completion_slot(request) is None


def test_validate_full_delivery_required():
    request = TransferRequest(0, 1, 6.0, 3)
    schedule = TransferSchedule([move(request.request_id, 0, 1, 0, 5.0)])
    with pytest.raises(SchedulingError, match="delivers"):
        schedule.validate([request])


def test_validate_unknown_request():
    request = TransferRequest(0, 1, 6.0, 3)
    schedule = TransferSchedule([move(999999, 0, 1, 0, 6.0)])
    with pytest.raises(SchedulingError, match="unknown"):
        schedule.validate([request])


def test_validate_window():
    request = TransferRequest(0, 1, 6.0, 2, release_slot=1)
    schedule = TransferSchedule(
        [move(request.request_id, 0, 1, 3, 6.0)]  # slot 3 > last slot 2
    )
    with pytest.raises(SchedulingError, match="outside"):
        schedule.validate([request])


def test_validate_conservation_store_and_forward():
    request = TransferRequest(0, 2, 6.0, 3, release_slot=0)
    rid = request.request_id
    # Data "teleports": leaves 0 and arrives at 2 from node 1 without
    # ever reaching node 1.
    bad = TransferSchedule([move(rid, 0, 1, 0, 6.0), move(rid, 1, 2, 0, 6.0)])
    with pytest.raises(SchedulingError, match="conservation"):
        bad.validate([request])


def test_validate_good_store_and_forward():
    request = TransferRequest(0, 2, 6.0, 3, release_slot=0)
    rid = request.request_id
    good = TransferSchedule([move(rid, 0, 1, 0, 6.0), move(rid, 1, 2, 1, 6.0)])
    good.validate([request])  # no exception


def test_validate_fluid_allows_same_slot_relay():
    request = TransferRequest(0, 2, 6.0, 3, release_slot=0)
    rid = request.request_id
    fluid = TransferSchedule(
        [
            move(rid, 0, 1, 0, 2.0), move(rid, 1, 2, 0, 2.0),
            move(rid, 0, 1, 1, 2.0), move(rid, 1, 2, 1, 2.0),
            move(rid, 0, 1, 2, 2.0), move(rid, 1, 2, 2, 2.0),
        ],
        semantics=SEMANTICS_FLUID,
    )
    fluid.validate([request])  # no exception


def test_validate_fluid_rejects_imbalance():
    request = TransferRequest(0, 2, 4.0, 2, release_slot=0)
    rid = request.request_id
    bad = TransferSchedule(
        [
            move(rid, 0, 1, 0, 2.0), move(rid, 1, 2, 0, 1.0),
            move(rid, 0, 1, 1, 2.0), move(rid, 1, 2, 1, 3.0),
        ],
        semantics=SEMANTICS_FLUID,
    )
    with pytest.raises(SchedulingError, match="fluid conservation"):
        bad.validate([request])


def test_validate_fluid_rejects_holdover():
    request = TransferRequest(0, 1, 4.0, 2, release_slot=0)
    rid = request.request_id
    with pytest.raises(SchedulingError, match="holdover"):
        TransferSchedule(
            [move(rid, 0, 1, 0, 4.0)], semantics=SEMANTICS_FLUID, stored=[(rid, 1.0)],
        )


def test_validate_capacity():
    request = TransferRequest(0, 1, 6.0, 1, release_slot=0)
    schedule = TransferSchedule([move(request.request_id, 0, 1, 0, 6.0)])
    with pytest.raises(SchedulingError, match="capacity"):
        schedule.validate([request], capacity_fn=lambda s, d, n: 5.0)
    schedule.validate([request], capacity_fn=lambda s, d, n: 6.0)
