"""Unit tests for transfer-request specifications."""

import pytest

from repro.errors import WorkloadError
from repro.traffic import TransferRequest, expand_multicast


def test_basic_fields():
    req = TransferRequest(1, 2, 50.0, 4, release_slot=3)
    assert req.last_slot == 6
    assert req.desired_rate == pytest.approx(12.5)


def test_request_ids_unique():
    a = TransferRequest(1, 2, 1.0, 1)
    b = TransferRequest(1, 2, 1.0, 1)
    assert a.request_id != b.request_id


def test_validation():
    with pytest.raises(WorkloadError):
        TransferRequest(1, 1, 1.0, 1)
    with pytest.raises(WorkloadError):
        TransferRequest(1, 2, 0.0, 1)
    with pytest.raises(WorkloadError):
        TransferRequest(1, 2, 1.0, 0)
    with pytest.raises(WorkloadError):
        TransferRequest(1, 2, 1.0, 1, release_slot=-1)


def test_with_release():
    req = TransferRequest(1, 2, 50.0, 4, release_slot=0)
    moved = req.with_release(7)
    assert moved.release_slot == 7
    assert moved.size_gb == req.size_gb
    assert moved.request_id != req.request_id  # a new logical file


def test_str_mentions_endpoints():
    text = str(TransferRequest(1, 2, 50.0, 4))
    assert "1->2" in text and "50" in text


def test_expand_multicast():
    reqs = expand_multicast(0, [1, 2, 3], 10.0, 2, release_slot=5)
    assert len(reqs) == 3
    assert {r.destination for r in reqs} == {1, 2, 3}
    assert all(r.source == 0 for r in reqs)
    assert all(r.size_gb == 10.0 and r.deadline_slots == 2 for r in reqs)
    assert all(r.release_slot == 5 for r in reqs)


def test_expand_multicast_validation():
    with pytest.raises(WorkloadError):
        expand_multicast(0, [], 10.0, 2)
    with pytest.raises(WorkloadError):
        expand_multicast(0, [1, 1], 10.0, 2)
