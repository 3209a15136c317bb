"""Unit tests for bulk-throughput maximization over leftover bandwidth."""

import pytest

from repro.errors import SchedulingError
from repro.core.state import NetworkState
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.extensions import maximize_bulk_throughput
from repro.traffic import TransferRequest


def _pay_for(state, src, dst, volume, slot=0):
    """Commit a transfer so the link gains paid headroom."""
    request = TransferRequest(src, dst, volume, 1, release_slot=slot)
    schedule = TransferSchedule(
        [ScheduleEntry(request.request_id, src, dst, slot, volume)]
    )
    state.commit(schedule, [request])
    return request


def test_needs_requests(line3):
    state = NetworkState(line3, horizon=10)
    with pytest.raises(SchedulingError):
        maximize_bulk_throughput(state, [])


def test_cold_network_delivers_nothing(line3):
    # No paid headroom anywhere: bulk traffic would increase bills, so
    # the optimizer moves nothing.
    state = NetworkState(line3, horizon=10)
    bulk = TransferRequest(0, 1, 10.0, 4, release_slot=0)
    result = maximize_bulk_throughput(state, [bulk])
    assert result.total_delivered == pytest.approx(0.0)


def test_rides_paid_headroom(line3):
    state = NetworkState(line3, horizon=20)
    _pay_for(state, 0, 1, 6.0, slot=0)  # paid peak 6 on (0,1)
    bulk = TransferRequest(0, 1, 30.0, 4, release_slot=2)
    result = maximize_bulk_throughput(state, [bulk])
    # 4 slots x 6 GB of free headroom = 24 GB deliverable.
    assert result.delivered[bulk.request_id] == pytest.approx(24.0)
    result.schedule.validate([bulk], require_full_delivery=False)
    # And the schedule would not raise any link's charge.
    for (src, dst, slot), volume in result.schedule.link_slot_volumes().items():
        assert volume <= state.paid_headroom(src, dst, slot) + 1e-6


def test_relay_headroom_via_intermediate(line3):
    state = NetworkState(line3, horizon=20)
    _pay_for(state, 0, 1, 5.0, slot=0)
    _pay_for(state, 1, 2, 5.0, slot=0)
    bulk = TransferRequest(0, 2, 100.0, 3, release_slot=1)
    result = maximize_bulk_throughput(state, [bulk])
    # Path 0->1 (slots 1,2) then 1->2 (slots 2,3): store-and-forward
    # pipelining delivers 10 GB within the 3-slot window.
    assert result.delivered[bulk.request_id] == pytest.approx(10.0)
    result.schedule.validate([bulk], require_full_delivery=False)


def test_weights_prioritize(line3):
    state = NetworkState(line3, horizon=20)
    _pay_for(state, 0, 1, 4.0, slot=0)
    a = TransferRequest(0, 1, 8.0, 2, release_slot=1)
    b = TransferRequest(0, 1, 8.0, 2, release_slot=1)
    result = maximize_bulk_throughput(
        state, [a, b], weights={a.request_id: 10.0, b.request_id: 1.0}
    )
    # Both compete for 2 slots x 4 GB free: the weighted file wins.
    assert result.delivered[a.request_id] == pytest.approx(8.0)
    assert result.delivered[b.request_id] == pytest.approx(0.0)


def test_never_exceeds_file_size(line3):
    state = NetworkState(line3, horizon=50)
    _pay_for(state, 0, 1, 10.0, slot=0)
    small = TransferRequest(0, 1, 3.0, 8, release_slot=1)
    result = maximize_bulk_throughput(state, [small])
    assert result.delivered[small.request_id] == pytest.approx(3.0)
