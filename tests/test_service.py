"""Unit tests for the transfer-broker service (protocol, intake, broker)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser
from repro.errors import BackpressureError, ProtocolError, ServiceError
from repro.registry import scheduler_names
from repro.service import IntakeQueue, PendingTransfer, ServiceConfig, TransferBroker
from repro.service import protocol
from repro.service.config import from_args


# -- config ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ServiceError, match="datacenters"):
        ServiceConfig(datacenters=1)
    with pytest.raises(ServiceError, match="max_queue"):
        ServiceConfig(max_queue=0)
    with pytest.raises(ServiceError, match="tick_seconds"):
        ServiceConfig(tick_seconds=-1.0)
    with pytest.raises(ServiceError, match="checkpoint_every"):
        ServiceConfig(checkpoint_every=0)


def test_config_endpoint():
    assert ServiceConfig(port=7411).endpoint == "tcp:127.0.0.1:7411"
    assert ServiceConfig(socket_path="/tmp/x.sock").endpoint == "unix:/tmp/x.sock"


_paths = st.text(alphabet="abc/._-", min_size=1, max_size=8).map("/tmp/{}".format)


@st.composite
def flagged_configs(draw):
    """A valid config varying every field that has a ``serve`` flag."""
    scheduler = draw(st.sampled_from(_SCHEDULERS))
    max_deadline = draw(st.integers(1, 64))
    period_slots = draw(st.just(0) | st.integers(max_deadline + 1, 500))
    return dict(
        host=draw(st.sampled_from(["127.0.0.1", "0.0.0.0", "localhost"])),
        port=draw(st.integers(0, 65535)),
        socket_path=draw(st.none() | _paths),
        datacenters=draw(st.integers(2, 40)),
        capacity=draw(st.floats(1e-6, 1e6)),
        seed=draw(st.integers(0, 2**31)),
        scheduler=scheduler,
        max_deadline=max_deadline,
        link_schedule_path=draw(st.none() | _paths),
        tick_seconds=draw(st.floats(0.0, 10.0)),
        max_queue=draw(st.integers(1, 10**6)),
        max_batch=draw(st.integers(0, 10**4)),
        checkpoint_dir=draw(st.none() | _paths),
        checkpoint_every=draw(st.integers(1, 100)),
        period_slots=period_slots,
        snapshot_retain=draw(st.integers(1, 9)),
        read_timeout_s=draw(st.floats(0.0, 60.0)),
        watchdog_timeout_s=(
            draw(st.floats(0.0, 60.0)) if scheduler == "hybrid" else 0.0
        ),
        forecast=scheduler == "hybrid" and draw(st.booleans()),
        forecast_period=draw(st.integers(2, 100)),
        forecast_horizon=draw(st.integers(0, 100)),
    )


# Built together: other tests register schedulers of their own later.
_PARSER, _SCHEDULERS = build_parser(), scheduler_names()


#: The fields whose ``serve`` flag is not ``--<field-name-with-dashes>``.
_RENAMED_FLAGS = {
    "socket_path": "--socket",
    "link_schedule_path": "--link-schedule",
    "read_timeout_s": "--read-timeout",
    "watchdog_timeout_s": "--watchdog-timeout",
}


@settings(max_examples=30, deadline=None)
@given(flagged_configs())
def test_config_survives_its_own_command_line(kwargs):
    """The ``serve`` command line spelling a config parses back to it,
    for every field that has a flag (a new flagged field must join the
    strategy above)."""
    assert set(kwargs) == {
        f.name for f in dataclasses.fields(ServiceConfig) if "flag" in f.metadata
    }
    argv = ["serve"]
    for name, value in kwargs.items():
        flag = _RENAMED_FLAGS.get(name, "--" + name.replace("_", "-"))
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    assert from_args(_PARSER.parse_args(argv)) == ServiceConfig(**kwargs)


# -- protocol --------------------------------------------------------------


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError, match="JSON"):
        protocol.decode_line(b"{oops\n")
    with pytest.raises(ProtocolError, match="object"):
        protocol.decode_line(b"[1, 2]\n")
    with pytest.raises(ProtocolError, match="op"):
        protocol.decode_line(b'{"id": "x"}\n')
    with pytest.raises(ProtocolError, match="unknown op"):
        protocol.decode_line(b'{"op": "launch"}\n')
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.decode_line(b"x" * (protocol.MAX_LINE_BYTES + 1))


def test_encode_decode_round_trip():
    line = protocol.encode({"op": "ping", "n": 1})
    assert line.endswith(b"\n")
    assert protocol.decode_line(line) == {"op": "ping", "n": 1}


def test_validate_submit_normalizes():
    fields = protocol.validate_submit(
        {"op": "submit", "id": "a", "source": "0", "destination": 2,
         "size_gb": "5.5", "deadline_slots": 3.0},
        max_deadline=8, datacenters=4,
    )
    assert fields == {"id": "a", "source": 0, "destination": 2,
                      "size_gb": 5.5, "deadline_slots": 3}


@pytest.mark.parametrize(
    "patch, match",
    [
        ({"id": ""}, "id"),
        ({"source": 1}, "destination"),  # src == dst
        ({"size_gb": 0}, "size_gb"),
        ({"size_gb": "lots"}, "malformed"),
        ({"deadline_slots": 0}, "deadline_slots"),
        ({"deadline_slots": 99}, "deadline_slots"),
        ({"size_gb": 1e-6}, "volume tolerance 1e-06 GB"),
        # A wire float that is not finite, or a datacenter outside the
        # network, would fail the whole slot it was batched into.
        ({"size_gb": "nan"}, "finite"),
        ({"size_gb": "-inf"}, "finite"),
        ({"size_gb": "inf"}, "finite"),
        ({"source": 4}, "datacenters are 0..3, got 4 -> 1"),
        ({"destination": -1}, "datacenters are 0..3"),
        ({"source": 2**64}, "datacenters are 0..3"),
    ],
)
def test_validate_submit_rejects(patch, match):
    message = {"op": "submit", "id": "a", "source": 0, "destination": 1,
               "size_gb": 5.0, "deadline_slots": 3}
    message.update(patch)
    with pytest.raises(ProtocolError, match=match):
        protocol.validate_submit(message, max_deadline=8, datacenters=4)


def test_a_file_within_the_volume_tolerance_is_refused_before_the_broker():
    # Admitted, a 1e-10 GB file was planned as nothing and its slot failed
    # ("commit: file 0 is not delivered"), taking the 5 GB client with it.
    broker = TransferBroker(ServiceConfig(datacenters=4, capacity=50, tick_seconds=0))
    tiny = {"op": "submit", "id": "tiny", "source": 0, "destination": 1,
            "size_gb": 1e-10, "deadline_slots": 3}
    with pytest.raises(ProtocolError, match="volume tolerance"):
        broker.submit(protocol.validate_submit(tiny, max_deadline=8, datacenters=4))
    big = dict(tiny, id="big", source=1, destination=2, size_gb=5.0)
    broker.submit(protocol.validate_submit(big, max_deadline=8, datacenters=4))
    [(_, record)] = broker.process_slot()
    assert record["decision"] == "admitted"


# -- intake queue ----------------------------------------------------------


def _pending(i, **kw):
    fields = dict(client_id=f"p{i}", source=0, destination=1,
                  size_gb=1.0, deadline_slots=2)
    fields.update(kw)
    return PendingTransfer(**fields)


def test_intake_backpressure_and_retry_after():
    queue = IntakeQueue(max_depth=2, tick_seconds=0.5)
    queue.offer(_pending(0))
    queue.offer(_pending(1))
    with pytest.raises(BackpressureError) as err:
        queue.offer(_pending(2))
    assert err.value.retry_after_s >= 0.5
    assert queue.depth == 2


def test_intake_fifo_and_batch_cap():
    queue = IntakeQueue(max_depth=10, tick_seconds=0.1, max_batch=2)
    for i in range(5):
        queue.offer(_pending(i))
    assert [p.client_id for p in queue.drain()] == ["p0", "p1"]
    assert [p.client_id for p in queue.drain()] == ["p2", "p3"]
    assert [p.client_id for p in queue.drain()] == ["p4"]
    assert queue.drain() == []


def test_intake_requeue_front_preserves_order():
    queue = IntakeQueue(max_depth=10, tick_seconds=0.1)
    queue.offer(_pending(9))
    queue.requeue_front([_pending(0), _pending(1)])
    assert [p.client_id for p in queue.drain()] == ["p0", "p1", "p9"]


def test_intake_index_agrees_with_queue_after_requeue_and_remove():
    queue = IntakeQueue(max_depth=10, tick_seconds=0.1)
    for i in (5, 6, 7):
        queue.offer(_pending(i))
    queue.requeue_front([_pending(0), _pending(1)])
    assert queue.remove("p6").client_id == "p6"  # from the middle
    assert queue.remove("p0").client_id == "p0"  # from the front
    assert queue.remove("p6") is None
    assert queue.pending_ids() == ["p1", "p5", "p7"] and len(queue) == 3
    for cid in ("p1", "p5", "p7"):
        assert queue.contains(cid) and queue.find(cid).client_id == cid
    for cid in ("p0", "p6"):
        assert not queue.contains(cid) and queue.find(cid) is None
    with pytest.raises(KeyError):
        queue.take_ids(["p7", "p6"])
    assert [p.client_id for p in queue.take_ids(["p7", "p1"])] == ["p7", "p1"]
    assert queue.pending_ids() == ["p5"]
    assert [p.client_id for p in queue.drain()] == ["p5"]
    assert not queue.contains("p5") and len(queue) == 0


def test_intake_index_keeps_queue_order_among_duplicate_ids():
    queue = IntakeQueue(max_depth=10, tick_seconds=0.1, max_batch=1)
    first, second = _pending(4, size_gb=1.0), _pending(4, size_gb=2.0)
    queue.offer(first)
    queue.offer(_pending(8))
    queue.offer(second)
    assert queue.find("p4") is first
    assert queue.drain() == [first]
    assert queue.find("p4") is second and queue.contains("p4")
    assert queue.remove("p4") is second
    assert not queue.contains("p4") and queue.pending_ids() == ["p8"]


def test_pending_payload_round_trip():
    pending = _pending(3, size_gb=7.25, deadline_slots=5)
    restored = PendingTransfer.from_payload(pending.to_payload())
    assert restored.client_id == "p3"
    assert (restored.source, restored.destination) == (0, 1)
    assert restored.size_gb == 7.25
    assert restored.deadline_slots == 5
    assert restored.waiter is None


# -- broker ----------------------------------------------------------------


def make_broker(tmp_path=None, **overrides):
    kwargs = dict(datacenters=4, capacity=50.0, tick_seconds=0.0,
                  max_deadline=8, seed=3)
    if tmp_path is not None:
        kwargs.update(checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=1)
    kwargs.update(overrides)
    return TransferBroker(ServiceConfig(**kwargs))


def submit_fields(i, **kw):
    fields = {"id": f"c{i}", "source": 0, "destination": 1 + i % 3,
              "size_gb": 5.0 + i, "deadline_slots": 3}
    fields.update(kw)
    return fields


def test_broker_batches_and_decides():
    broker = make_broker()
    for i in range(4):
        outcome, _ = broker.submit(submit_fields(i))
        assert outcome == "pending"
    resolutions = broker.process_slot()
    assert len(resolutions) == 4
    for pending, record in resolutions:
        assert record["decision"] == "admitted"
        assert record["slot"] == 0
        assert record["completion_slot"] <= record["deadline_slot"]
    assert broker.next_slot == 1
    assert broker.status("c0")["state"] == "admitted"
    assert broker.status("nope")["state"] == "unknown"


def test_a_replanner_broker_admits_what_its_plan_accepts():
    """Admission is the plan's: a file the replanner accepts at slot 0 and
    delivers over later slots is answered and counted admitted, with no
    completion slot until it is delivered."""
    broker = make_broker(scheduler="postcard-replan")
    broker.submit({"id": "big", "source": 0, "destination": 2,
                   "size_gb": 120.0, "deadline_slots": 6})
    [(_, record)] = broker.process_slot()
    assert record["decision"] == "admitted" and record["completion_slot"] is None
    assert broker.counts["admitted"] == 1 and broker.counts["rejected"] == 0
    while broker.scheduler.active:
        broker.process_slot()
    assert max(broker.state.completions.values()) <= record["deadline_slot"]


def test_one_probe_per_pair_answers_what_each_request_would_ask(monkeypatch):
    """The batch's headroom probe asks once per (source, destination)
    pair, and every decision carries what asking for that request alone
    returns, a pair without a direct link (best outgoing link) included."""
    from repro.net.topology import Topology

    full = ServiceConfig(datacenters=4, capacity=50.0, seed=3).topology()
    sparse = Topology(full.datacenters, [link for link in full.links if link.key != (0, 1)])
    monkeypatch.setattr(ServiceConfig, "topology", lambda self: sparse)
    broker = make_broker()
    # Slot 0 pays peaks on two of datacenter 0's outgoing links.
    broker.submit(submit_fields(0, destination=2, size_gb=20.0, deadline_slots=1))
    broker.submit(submit_fields(1, destination=3, size_gb=10.0, deadline_slots=1))
    broker.process_slot()

    pairs = [(0, 1), (0, 2), (0, 1), (2, 3), (0, 2), (0, 1), (3, 0), (2, 3)]
    slot, expected = broker.next_slot, {}
    for i, (src, dst) in enumerate(pairs, start=2):
        broker.submit(submit_fields(i, source=src, destination=dst, size_gb=1.0 + i))
        expected[f"c{i}"] = broker._admission_headroom(src, dst, slot)
    assert expected["c2"] > 0.0  # the relay fallback found paid headroom
    asked = []
    probe = broker._admission_headroom
    monkeypatch.setattr(broker, "_admission_headroom",
                        lambda *args: asked.append(args) or probe(*args))
    resolutions = broker.process_slot()
    assert sorted(asked) == sorted((*pair, slot) for pair in set(pairs))
    assert {p.client_id: r["headroom_gb"] for p, r in resolutions} == expected


def test_broker_empty_slot_advances_clock():
    broker = make_broker()
    assert broker.process_slot() == []
    assert broker.next_slot == 1
    assert broker.counts["batches"] == 0


def test_broker_duplicate_submission_is_idempotent():
    broker = make_broker()
    broker.submit(submit_fields(0))
    # A duplicate with no live waiter attaches to the queued entry
    # (a reconnecting client's exactly-once path); with a live waiter
    # it is refused below.
    outcome, entry = broker.submit(submit_fields(0))
    assert outcome == "attached"
    assert entry.client_id == "c0"

    class LiveWaiter:
        def done(self):
            return False

    entry.waiter = LiveWaiter()
    with pytest.raises(ServiceError, match="already pending"):
        broker.submit(submit_fields(0))
    entry.waiter = None
    broker.process_slot()
    outcome, record = broker.submit(submit_fields(0))
    assert outcome == "decided"
    assert record["decision"] == "admitted"


def test_broker_refuses_past_horizon():
    broker = make_broker(horizon=16)
    broker.next_slot = 14
    with pytest.raises(ServiceError, match="horizon"):
        broker.submit(submit_fields(0, deadline_slots=3))


def test_broker_refuses_while_draining():
    broker = make_broker()
    broker.draining = True
    with pytest.raises(ServiceError, match="draining"):
        broker.submit(submit_fields(0))


def test_broker_backpressure_counts(tmp_path):
    broker = make_broker(max_queue=2)
    broker.submit(submit_fields(0))
    broker.submit(submit_fields(1))
    with pytest.raises(BackpressureError):
        broker.submit(submit_fields(2))
    assert broker.counts["backpressured"] == 1
    assert broker.counts["submitted"] == 2


def test_broker_checkpoint_and_resume(tmp_path):
    broker = make_broker(tmp_path)
    for i in range(3):
        broker.submit(submit_fields(i))
    broker.process_slot()  # checkpoint_every=1 -> snapshot written
    broker.submit(submit_fields(7))  # queued but NOT yet checkpointed

    resumed = make_broker(tmp_path)
    assert resumed.resumed
    assert resumed.next_slot == 1
    assert resumed.decisions == broker.decisions
    # The snapshot's queue was empty, but c7's admit record is in the log.
    assert resumed.queue.pending_ids() == ["c7"]
    assert resumed.state.charged_snapshot() == pytest.approx(
        broker.state.charged_snapshot()
    )


def test_broker_pending_queue_survives_checkpoint(tmp_path):
    broker = make_broker(tmp_path, max_batch=2)
    for i in range(5):
        broker.submit(submit_fields(i))
    broker.process_slot()  # decides c0,c1; c2..c4 still queued at snapshot

    resumed = make_broker(tmp_path, max_batch=2)
    assert resumed.queue.depth == 3
    resolutions = resumed.process_slot()
    assert [r[1]["id"] for r in resolutions] == ["c2", "c3"]


def test_broker_drain_flushes_everything(tmp_path):
    broker = make_broker(tmp_path, max_batch=2)
    for i in range(5):
        broker.submit(submit_fields(i))
    resolved = broker.drain_remaining()
    assert len(resolved) == 5
    assert broker.queue.depth == 0
    assert broker.draining
    assert broker.store.snapshot_generations()


def test_crash_resume_matches_uninterrupted_run(tmp_path):
    """The acceptance-criteria invariant, at the broker level: kill the
    process between slots, restart from the checkpoint, finish the
    workload — cumulative charged volume is identical to a run that was
    never interrupted."""
    first_batch = [submit_fields(i) for i in range(4)]
    second_batch = [submit_fields(10 + i) for i in range(4)]

    # Reference: one broker sees both batches, never dies.
    reference = make_broker(tmp_path / "ref")
    for fields in first_batch:
        reference.submit(dict(fields))
    reference.process_slot()
    for fields in second_batch:
        reference.submit(dict(fields))
    reference.process_slot()

    # Interrupted: first batch, checkpoint, "kill -9" (drop the object),
    # restart, second batch.
    broker = make_broker(tmp_path / "crash")
    for fields in first_batch:
        broker.submit(dict(fields))
    broker.process_slot()
    del broker

    resumed = make_broker(tmp_path / "crash")
    assert resumed.resumed and resumed.next_slot == 1
    for fields in second_batch:
        resumed.submit(dict(fields))
    resumed.process_slot()

    assert resumed.state.charged_snapshot() == pytest.approx(
        reference.state.charged_snapshot()
    )
    assert resumed.state.current_cost_per_slot() == pytest.approx(
        reference.state.current_cost_per_slot()
    )
    ref_decisions = {k: v["decision"] for k, v in reference.decisions.items()}
    res_decisions = {k: v["decision"] for k, v in resumed.decisions.items()}
    assert res_decisions == ref_decisions


def test_broker_stats_shape(tmp_path):
    broker = make_broker(tmp_path)
    broker.submit(submit_fields(0))
    broker.process_slot()
    stats = broker.stats()
    for key in ("endpoint", "scheduler", "next_slot", "queue_depth",
                "cost_per_slot", "checkpoints", "submitted", "admitted"):
        assert key in stats
    assert stats["checkpoints"] == 1
    json.dumps(stats)  # the stats body must be wire-serializable
