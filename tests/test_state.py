"""Unit tests for the online network state."""

import pytest

from repro import invariants
from repro.errors import SchedulingError
from repro.charging import PercentileCharging
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.net.generators import line_topology
from repro.traffic import TransferRequest
from tests.schedule_reference import storage_slot_volumes


@pytest.fixture
def state(line3):
    return NetworkState(line3, horizon=10)


def _delivering_schedule(request):
    """A one-hop direct schedule delivering the whole file in slot 0."""
    return TransferSchedule(
        [ScheduleEntry(request.request_id, request.source, request.destination, 0, request.size_gb)]
    )


def test_initial_state(state):
    assert state.charged_volume(0, 1) == 0.0
    assert state.current_cost_per_slot() == 0.0
    assert state.residual_capacity(0, 1, 5) == 10.0
    assert state.paid_headroom(0, 1, 5) == 0.0


def test_commit_updates_everything(state):
    request = TransferRequest(0, 1, 4.0, 1, release_slot=0)
    state.commit(_delivering_schedule(request), [request])
    assert state.charged_volume(0, 1) == 4.0
    assert state.committed_volume(0, 1, 0) == 4.0
    assert state.residual_capacity(0, 1, 0) == 6.0
    # Paid headroom at a later, idle slot equals the paid peak.
    assert state.paid_headroom(0, 1, 3) == 4.0
    assert state.completions[request.request_id] == 0
    assert state.current_cost_per_slot() == pytest.approx(4.0)


def test_paid_headroom_capped_by_capacity(state):
    r1 = TransferRequest(0, 1, 9.0, 1, release_slot=0)
    state.commit(_delivering_schedule(r1), [r1])
    # At slot 0 the link already carries 9: headroom = min(0, residual).
    assert state.paid_headroom(0, 1, 0) == 0.0
    assert state.paid_headroom(0, 1, 1) == 9.0


def test_charged_volume_never_decreases(state):
    r1 = TransferRequest(0, 1, 8.0, 1, release_slot=0)
    state.commit(_delivering_schedule(r1), [r1])
    r2 = TransferRequest(0, 1, 2.0, 1, release_slot=1)
    schedule2 = TransferSchedule([ScheduleEntry(r2.request_id, 0, 1, 1, 2.0)])
    state.commit(schedule2, [r2])
    assert state.charged_volume(0, 1) == 8.0  # smaller later peak is free


def test_commit_validates_capacity(state):
    request = TransferRequest(0, 1, 40.0, 1, release_slot=0)
    with pytest.raises(SchedulingError):
        state.commit(_delivering_schedule(request), [request])
    # Failed commit left no traces.
    assert state.charged_volume(0, 1) == 0.0
    assert state.committed_volume(0, 1, 0) == 0.0


def test_commit_capacity_slack_stays_inside_the_ledger_tolerance():
    # On a 100 GB link the audit allowed 1e-5 x 100 GB over the residual,
    # while the invariant kernel flags a cell 1e-6 x 100 GB over capacity:
    # a commit could record 5e-4 GB over, and the next audit (or resume)
    # called the books broken.  The audit's slack is now the kernel's.
    state = NetworkState(line_topology(2, capacity=100.0), horizon=10)
    request = TransferRequest(0, 1, 100.0 + 5e-4, 1, release_slot=0)
    with pytest.raises(SchedulingError, match="over capacity"):
        state.commit(_delivering_schedule(request), [request])
    assert state.ledger.total_volume() == 0.0
    assert not state.completions and state.charged_volume(0, 1) == 0.0
    assert invariants.cells(state) == []
    # Within the kernel's tolerance the same commit lands and audits clean.
    request = TransferRequest(0, 1, 100.0 + 5e-5, 1, release_slot=0)
    state.commit(_delivering_schedule(request), [request])
    assert invariants.cells(state) == []


def test_commit_requires_delivery(state):
    request = TransferRequest(0, 2, 4.0, 2, release_slot=0)
    partial = TransferSchedule(
        [ScheduleEntry(request.request_id, 0, 1, 0, 4.0),
         ScheduleEntry(request.request_id, 1, 2, 1, 4.0)]
    )
    state.commit(partial, [request])  # fine: two-hop delivery
    request2 = TransferRequest(0, 2, 4.0, 2, release_slot=2)
    with pytest.raises(SchedulingError):
        # validate=False skips the audit, but commit still refuses to
        # mark an undelivered file complete.
        state.commit(TransferSchedule(), [request2], validate=False)


def test_storage_accounting(state):
    request = TransferRequest(0, 2, 4.0, 3, release_slot=0)
    rid = request.request_id
    # The data waits at 1 over slot 1: implied by the transmissions, and
    # its GB-slots ride beside them.
    schedule = TransferSchedule(
        [ScheduleEntry(rid, 0, 1, 0, 4.0), ScheduleEntry(rid, 1, 2, 2, 4.0)],
        stored=[(rid, 4.0)],
    )
    assert storage_slot_volumes(schedule, [request]) == {(1, 1): 4.0}
    state.commit(schedule, [request])
    assert state.storage_used == pytest.approx(4.0)


def test_reject_tracking(state):
    request = TransferRequest(0, 1, 4.0, 1)
    state.reject(request)
    assert state.rejected == [request]


def test_cost_per_slot_rebilling(state):
    request = TransferRequest(0, 1, 4.0, 1, release_slot=0)
    state.commit(_delivering_schedule(request), [request])
    # Under max charging: one peak of 4 for the whole period.
    assert state.cost_per_slot() == pytest.approx(4.0)
    # Under the 50th percentile, the single busy slot of 10 is ignored.
    assert state.cost_per_slot(PercentileCharging(50)) == 0.0


def test_repr(state):
    assert "cost_per_slot" in repr(state)
