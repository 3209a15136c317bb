"""Unit tests for NetworkState checkpointing."""

import json

import pytest

from repro.errors import SchedulingError
from repro.core import PostcardScheduler
from repro.core.checkpoint import state_from_payload, state_to_payload
from repro.core.interfaces import slot_step
from repro.core.state import NetworkState
from repro.net.generators import complete_topology, line_topology
from repro.sim import Simulation
from repro.traffic import PaperWorkload, TransferRequest


def warmed_state():
    topo = complete_topology(5, capacity=30.0, seed=19)
    scheduler = PostcardScheduler(topo, horizon=30, on_infeasible="drop")
    workload = PaperWorkload(topo, max_deadline=4, max_files=3, seed=9)
    Simulation(scheduler, workload, num_slots=5).run()
    return topo, scheduler.state


def round_trip(state, topology):
    """The state's payload through JSON text and back, as a snapshot carries it."""
    return state_from_payload(json.loads(json.dumps(state_to_payload(state))), topology)


def test_round_trip_preserves_accounting():
    topo, original = warmed_state()
    restored = round_trip(original, topo)

    assert restored.horizon == original.horizon
    assert restored.charged_snapshot() == original.charged_snapshot()
    assert restored.completions == original.completions
    assert restored.storage_used == pytest.approx(original.storage_used)
    assert restored.current_cost_per_slot() == pytest.approx(
        original.current_cost_per_slot()
    )
    for link in topo.links:
        for slot in range(10):
            assert restored.ledger.volume(
                link.src, link.dst, slot
            ) == pytest.approx(original.ledger.volume(link.src, link.dst, slot))


def test_resume_scheduling_after_restore():
    """A restored state accepts new rounds exactly like the original:
    same residuals, same paid headroom, same resulting cost."""
    topo, original = warmed_state()
    restored = round_trip(original, topo)

    request = TransferRequest(0, 1, 12.0, 3, release_slot=10)
    from repro.core import build_postcard_model

    _, sol_orig = build_postcard_model(original, [request.with_release(10)]).solve()
    _, sol_rest = build_postcard_model(restored, [request.with_release(10)]).solve()
    assert sol_orig.objective == pytest.approx(sol_rest.objective)


def test_topology_mismatch_rejected(line3):
    topo, original = warmed_state()
    payload = state_to_payload(original)
    with pytest.raises(SchedulingError, match="topology"):
        state_from_payload(payload, line3)


def test_garbage_rejected(line3):
    with pytest.raises(SchedulingError, match="not a postcard state"):
        state_from_payload({"kind": "postcard-trace"}, line3)
    with pytest.raises(SchedulingError, match="version"):
        state_from_payload({"kind": "postcard-state", "version": 9}, line3)


def test_period_bookkeeping_survives():
    topo, state = warmed_state()
    state.start_new_period(8)
    restored = round_trip(state, topo)
    assert restored.period_start == 8
    assert restored.banked_period_bills == pytest.approx(state.banked_period_bills)


def test_mid_run_resume_under_active_faults():
    """Checkpoint/restore in the middle of a run with a surprise outage
    in the resumed half: bills, completions, and salvage counters all
    match the uninterrupted run.

    The outage is confined to the resumed window and disrupts a file
    *released* there (the recovery shadow log is in-memory state, not
    part of a checkpoint, so only post-resume commitments can be
    salvaged after a restore).
    """
    from repro.core.scheduler import PostcardScheduler as PS
    from repro.sim import FaultModel, Outage
    from repro.sim.recovery import RecoveryManager
    from repro.traffic.workload import TraceWorkload

    topo = line_topology(3, capacity=10.0)
    # Shared request objects: both runs see identical request_ids.
    early = TransferRequest(0, 1, 6.0, 3, release_slot=0)
    late = TransferRequest(0, 1, 6.0, 4, release_slot=4)
    workload = TraceWorkload([early, late])
    faults = FaultModel([Outage(0, 1, 4, 5, announced=False)])
    split = 4

    def fresh(state=None):
        scheduler = PS(topo, horizon=14, on_infeasible="drop")
        if state is not None:
            scheduler.adopt_state(state)
        scheduler.state.fault_model = faults.copy()
        return scheduler

    # Uninterrupted reference run.
    full_sched = fresh()
    full = Simulation(full_sched, workload, num_slots=10).run()
    assert full.disrupted_gb > 0  # the outage really bites

    # Interrupted run: first half, checkpoint, restore, second half
    # driven slot by slot on the adopted state, shadowed by a recovery
    # manager as the engine shadows a run.
    first_sched = fresh()
    Simulation(first_sched, workload, num_slots=split).run()
    second_sched = fresh(state=round_trip(first_sched.state, topo))
    second = RecoveryManager(second_sched, second_sched.state.fault_model)
    for slot in range(split, 10):
        requests = workload.requests_at(slot)
        second.observe(slot, requests, slot_step(second_sched, slot, requests).schedule)
        second.execute_slot(slot)

    assert second_sched.state.completions == full_sched.state.completions
    assert second_sched.state.charged_snapshot() == pytest.approx(
        full_sched.state.charged_snapshot()
    )
    assert second_sched.state.current_cost_per_slot() == pytest.approx(
        full_sched.state.current_cost_per_slot()
    )
    for link in topo.links:
        for slot in range(14):
            assert second_sched.state.ledger.volume(
                link.src, link.dst, slot
            ) == pytest.approx(
                full_sched.state.ledger.volume(link.src, link.dst, slot)
            )
    # Salvage accounting of the resumed half equals the full run's.
    assert second.disrupted_gb == pytest.approx(full.disrupted_gb)
    assert second.salvaged_gb == pytest.approx(full.salvaged_gb)
    assert second.lost_gb == pytest.approx(full.lost_gb)
    assert second.deadline_misses == full.deadline_misses


def test_mid_period_resume_with_in_flight_holdover():
    """Checkpoint while store-and-forward volume is parked mid-path.

    A 0->2 transfer on a line topology must hold over at datacenter 1:
    hop 0->1 moves in slot 0, the file sits in storage across the slot
    boundary, hop 1->2 moves later.  Snapshotting *between* the hops is
    the case the service daemon lives or dies by — the restored state
    must carry the future ledger commitment, the holdover storage, and
    the charged volume, so the second hop happens (and bills) exactly
    as if the process had never died.
    """
    topo = line_topology(3, capacity=10.0)
    request = TransferRequest(0, 2, 6.0, 3, release_slot=0)
    scheduler = PostcardScheduler(topo, horizon=10, on_infeasible="drop")
    scheduler.on_slot(0, [request])
    original = scheduler.state

    # The plan really is in flight: hop 2 is committed beyond slot 0.
    later_volume = sum(
        original.ledger.volume(1, 2, slot) for slot in range(1, 10)
    )
    assert later_volume == pytest.approx(6.0)
    assert original.completions[request.request_id] >= 1

    restored = round_trip(original, topo)
    assert restored.charged_snapshot() == pytest.approx(
        original.charged_snapshot()
    )
    assert restored.storage_used == pytest.approx(original.storage_used)
    for slot in range(10):
        assert restored.ledger.volume(1, 2, slot) == pytest.approx(
            original.ledger.volume(1, 2, slot)
        )
    # The resumed process keeps scheduling on top of the in-flight
    # volume with the same marginal costs as the uninterrupted one.
    follow_up = TransferRequest(0, 2, 4.0, 3, release_slot=2)
    resumed = PostcardScheduler(topo, horizon=10, on_infeasible="drop")
    resumed.adopt_state(restored)
    slot_step(resumed, 2, [follow_up.with_release(2)])
    reference = PostcardScheduler(topo, horizon=10, on_infeasible="drop")
    reference.adopt_state(original)
    slot_step(reference, 2, [follow_up.with_release(2)])
    assert resumed.state.charged_snapshot() == pytest.approx(
        reference.state.charged_snapshot()
    )
    assert resumed.state.current_cost_per_slot() == pytest.approx(
        reference.state.current_cost_per_slot()
    )


def test_service_snapshot_round_trip(tmp_path):
    """The daemon's snapshot carries queue + clock + id watermark."""
    from repro.core.checkpoint import load_snapshot, save_snapshot
    from repro.traffic.spec import peek_next_request_id

    topo = line_topology(3, capacity=10.0)
    scheduler = PostcardScheduler(topo, horizon=10, on_infeasible="drop")
    request = TransferRequest(0, 2, 6.0, 3, release_slot=0)
    scheduler.on_slot(0, [request])
    pending = [
        {"id": "c-7", "source": 0, "destination": 2, "size_gb": 2.5,
         "deadline_slots": 4}
    ]
    path = tmp_path / "snapshot.json"
    save_snapshot(
        scheduler.state, path, pending, next_slot=1, meta={"counts": {"slots": 1}}
    )
    snapshot = load_snapshot(path, topo)
    assert snapshot.next_slot == 1
    assert snapshot.pending == pending
    assert snapshot.meta["counts"]["slots"] == 1
    assert snapshot.state.charged_snapshot() == pytest.approx(
        scheduler.state.charged_snapshot()
    )
    # Restore advanced the process-local id counter past every id the
    # snapshot's completions reference — new requests cannot collide.
    assert peek_next_request_id() > max(scheduler.state.completions)


def test_snapshot_rejects_garbage(line3):
    from repro.errors import SchedulingError
    from repro.core.checkpoint import snapshot_from_json

    with pytest.raises(SchedulingError, match="JSON"):
        snapshot_from_json(b"{oops", line3)
    with pytest.raises(SchedulingError, match="service snapshot"):
        snapshot_from_json(b'{"kind": "postcard-state"}', line3)
    with pytest.raises(SchedulingError, match="version"):
        snapshot_from_json(b'{"kind": "postcard-snapshot", "version": 9}', line3)


def test_rejections_survive_with_fresh_ids():
    topo = line_topology(3, capacity=10.0)
    state = NetworkState(topo, horizon=10)
    state.reject(TransferRequest(0, 2, 1.0, 1, release_slot=0))
    restored = round_trip(state, topo)
    assert len(restored.rejected) == 1
    assert restored.rejected[0].source == 0
    assert restored.rejected[0].request_id != state.rejected[0].request_id


def test_snapshot_header_carries_version_and_checksum():
    """Version-3 snapshots self-describe and self-verify: one compact
    document whose last key is the CRC-32 of everything before it."""
    import json
    import zlib

    from repro.core.checkpoint import snapshot_to_json

    topo = line_topology(3, capacity=10.0)
    text = snapshot_to_json(NetworkState(topo, horizon=10))
    payload = json.loads(text)
    assert payload["version"] == 3
    assert list(payload)[-1] == "checksum"
    body, _, recorded = text.rpartition(b',"checksum":')
    assert int(recorded[:-1]) == payload["checksum"]
    assert payload["checksum"] == zlib.crc32(body + b"}")
    assert b"\n" not in text and b": " not in text  # one pass, no indent


def test_snapshot_is_encoded_in_one_pass(monkeypatch):
    """No second (canonical) dump for the checksum, and a resume parses
    the state once instead of serialising it in order to parse it."""
    import orjson

    from repro.core import checkpoint

    topo, state = warmed_state()
    real_dumps, calls = orjson.dumps, []

    def counting_dumps(*args, **kwargs):
        calls.append(kwargs)
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(checkpoint.orjson, "dumps", counting_dumps)
    text = checkpoint.snapshot_to_json(state, [], 5, {"counts": {"slots": 5}})
    assert calls == [{}]
    del calls[:]
    restored = checkpoint.snapshot_from_json(text, topo)
    assert calls == []
    assert checkpoint.state_to_payload(restored.state) == checkpoint.state_to_payload(state)


def test_snapshot_checksum_mismatch_rejected(line3):
    import json

    from repro.core.checkpoint import snapshot_from_json, snapshot_to_json

    text = snapshot_to_json(NetworkState(line3, horizon=10))
    payload = json.loads(text)
    payload["next_slot"] = 41  # tamper without re-checksumming
    with pytest.raises(SchedulingError, match="checksum mismatch"):
        snapshot_from_json(json.dumps(payload).encode(), line3)
    # The same edit made in place, every other byte as the writer left it.
    assert b'"next_slot":0,' in text
    with pytest.raises(SchedulingError, match="checksum mismatch"):
        snapshot_from_json(text.replace(b'"next_slot":0,', b'"next_slot":7,'), line3)
    snapshot_from_json(text, line3)  # untouched, it loads


@pytest.mark.parametrize("version", [1, 2])
def test_a_snapshot_below_version_3_is_refused(line3, version):
    """Version 3 is the floor: an older snapshot is not read, so none
    loads unchecked (version 1 carried no checksum at all)."""
    import json

    from repro.core.checkpoint import snapshot_from_json, snapshot_to_json

    payload = json.loads(snapshot_to_json(NetworkState(line3, horizon=10)))
    payload["version"] = version
    if version == 1:
        del payload["checksum"]
    with pytest.raises(SchedulingError, match="reads version 3 only"):
        snapshot_from_json(json.dumps(payload).encode(), line3)


def test_atomic_write_durability_hooks(tmp_path):
    """atomic_write walks every crash boundary in order, then lands."""
    from repro.core.checkpoint import atomic_write

    stages = []
    target = tmp_path / "out.json"
    n = atomic_write(target, b'{"x": 1}', crashpoint=stages.append)
    assert stages == [
        "checkpoint.pre_write", "checkpoint.pre_fsync",
        "checkpoint.pre_rename", "checkpoint.post_rename",
    ]
    assert n == len('{"x": 1}')
    assert target.read_text() == '{"x": 1}'
    assert not target.with_name(target.name + ".tmp").exists()
