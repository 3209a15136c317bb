"""The live telemetry plane, end to end: request traces through the
broker, the ``metrics`` protocol op in both formats, wall-clock/slot
alignment, the closed-loop load generator, and the watch dashboard."""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.core.checkpoint import state_to_payload
from repro.service import (
    ServiceConfig,
    ServiceDaemon,
    TransferBroker,
    render_dashboard,
    run_loadgen,
    run_watch,
)
from repro.service.loadgen import Connection
from repro.traffic.spec import TransferRequest

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def make_broker(tmp_path=None, **overrides):
    kwargs = dict(datacenters=4, capacity=50.0, tick_seconds=0.0,
                  max_deadline=8, seed=3)
    if tmp_path is not None:
        kwargs.update(checkpoint_dir=str(tmp_path / "ckpt"),
                      checkpoint_every=1)
    kwargs.update(overrides)
    return TransferBroker(ServiceConfig(**kwargs))


def submit_fields(i, **kw):
    fields = {"id": f"c{i}", "source": 0, "destination": 1 + i % 3,
              "size_gb": 5.0 + i, "deadline_slots": 3}
    fields.update(kw)
    return fields


# -- config plumbing -------------------------------------------------------


def test_config_decision_budget_resolution():
    """The decision budget is the tick, or 0.25 s on a manual clock."""
    assert ServiceConfig(tick_seconds=0.5).decision_budget_s() == 0.5
    assert ServiceConfig(tick_seconds=0.0).decision_budget_s() == 0.25


def test_config_slo_thresholds_follow_queue_bound():
    """Every objective but the decision budget and the depth bound is a
    constant; the depth bound is 80% of the queue, at least 1."""
    from dataclasses import fields

    from repro.obs.slo import SloThresholds

    assert ServiceConfig(max_queue=100).slo_thresholds() == SloThresholds(
        min_admission_ratio=0.95, decision_budget_s=0.25,
        checkpoint_budget_s=1.0, max_intake_depth=80, max_degraded_slots=0,
    )
    assert ServiceConfig(max_queue=1).slo_thresholds().max_intake_depth == 1
    assert ServiceConfig(
        tick_seconds=0, max_queue=7
    ).slo_thresholds().max_intake_depth == 5
    assert not {f.name for f in fields(ServiceConfig)
                if f.name.startswith("slo_")}
    assert make_broker().slo.window == 64


def test_config_wall_time_mapping():
    config = ServiceConfig()
    assert config.wall_time(0, 1000.0) == 1000.0
    assert config.wall_time(7, 1000.0) == 1000.0 + 7 * 300.0


# -- request tracing through the broker ------------------------------------


def test_trace_id_links_intake_lane_solve_and_charge(tmp_path):
    """The acceptance-criteria chain: one submission's trace id appears
    on the intake leg, the lane-choice leg, a scheduling span (fast-path
    or LP solve), and the ledger-charge event — all in one JSONL-shaped
    event stream — with a charged-cost delta attribute.  The three
    request legs are per-slot events listing the batch; the reader cuts
    each down to this request."""
    path = tmp_path / "events.jsonl"
    broker = make_broker()
    registry = obs.get_registry()
    sink = obs.JsonlSink(path)
    registry.add_sink(sink)
    try:
        for i in range(3):
            broker.submit(submit_fields(i))
        resolutions = broker.process_slot()
    finally:
        registry.remove_sink(sink)
        sink.close()

    record = resolutions[0][1]
    trace_id = record["trace"]
    assert trace_id == "t-00000001"
    assert record["cost_delta"] > 0.0

    events = obs.load_events(path)
    legs = obs.request_legs(events, trace_id)
    intake = [e for e in legs if e["name"] == "service.intake"]
    assert len(intake) == 1
    assert intake[0]["attrs"]["id"] == record["id"]

    lane = [e for e in legs if e["name"] == "service.lane"]
    assert len(lane) == 1
    assert lane[0]["attrs"]["lane"] in ("fast", "lp")

    # The scheduling leg: whichever lane handled the slot, its span
    # carries the batch's trace ids via the ambient trace context.
    lane_spans = [
        e for e in events
        if e["type"] == "span"
        and e["name"] in ("hybrid.fastpath", "hybrid.escalate",
                          "scheduler.solve")
        and trace_id in e.get("attrs", {}).get("trace_ids", [])
    ]
    assert lane_spans, "no scheduling span carries the trace id"

    charges = [e for e in events if e["name"] == "ledger.charged_gb"
               and trace_id in e.get("attrs", {}).get("trace_ids", [])]
    assert charges, "no ledger-charge event carries the trace id"

    deltas = [e for e in legs if e["name"] == "service.charge_delta"]
    assert len(deltas) == 1
    assert deltas[0]["value"] == pytest.approx(record["cost_delta"])
    assert deltas[0]["attrs"]["headroom_gb"] == record["headroom_gb"]


def test_request_telemetry_is_paid_per_slot_not_per_request():
    """B submits and one slot emit as many events for B = 10 as for
    B = 400 on the same lane, and the counter totals still count
    requests: after every slot they equal the broker's tallies."""

    def events_per_slot(batch):
        broker = make_broker(capacity=1000.0, max_queue=1000)
        sink = obs.get_registry().add_sink(obs.MetricsSnapshot())
        seen = []
        try:
            for slot in range(2):
                before = sink.num_events
                for i in range(batch):
                    broker.submit({"id": f"s{slot}-{i}", "source": 0, "destination": 1,
                                   "size_gb": 0.01, "deadline_slots": 3})
                lanes = {record["lane"] for _, record in broker.process_slot()}
                seen.append((sink.num_events - before, lanes))
                counts = broker.counts
                assert {
                    name: sink.counter_total(f"service.{name}")
                    for name in ("submitted", "intake", "admitted", "rejected", "lane")
                } == {
                    "submitted": counts["submitted"], "intake": counts["submitted"],
                    "admitted": counts["admitted"], "rejected": counts["rejected"],
                    "lane": counts["admitted"] + counts["rejected"],
                }
        finally:
            obs.get_registry().remove_sink(sink)
        return seen

    assert events_per_slot(10) == events_per_slot(400)


def test_trace_ids_stay_unique_across_resume(tmp_path):
    broker = make_broker(tmp_path)
    broker.submit(submit_fields(0))
    broker.process_slot()

    resumed = make_broker(tmp_path)
    resumed.submit(submit_fields(1))
    (_, record), = resumed.process_slot()
    # The submitted tally is checkpointed, so the resumed broker keeps
    # counting where the dead process stopped.
    assert record["trace"] == "t-00000002"


def test_decision_records_carry_telemetry_fields():
    broker = make_broker(wall_epoch=1000.0)
    for i in range(2):
        broker.submit(submit_fields(i))
    resolutions = broker.process_slot()
    for _, record in resolutions:
        assert record["trace"].startswith("t-")
        assert record["wall_ts"] == 1000.0  # slot 0
        assert record["headroom_gb"] >= 0.0
        assert "cost_delta" in record
    # The batch is priced jointly: one delta for the whole slot.
    assert len({r["cost_delta"] for _, r in resolutions}) == 1


def test_broker_slo_monitor_tracks_slots():
    broker = make_broker()
    for i in range(3):
        broker.submit(submit_fields(i))
    broker.process_slot()
    states = broker.slo.evaluate()
    assert states["admission_ratio"]["window"] == 1
    assert states["admission_ratio"]["value"] == 1.0
    assert states["decision_p99_s"]["value"] > 0.0
    # The manual clock resolves the decision budget to the default tick.
    assert states["decision_p99_s"]["budget"] == 0.25


# -- wall-clock / virtual-slot alignment -----------------------------------


def test_wall_epoch_survives_checkpoint_resume(tmp_path):
    broker = make_broker(tmp_path, wall_epoch=5000.0)
    broker.submit(submit_fields(0))
    broker.process_slot()

    resumed = make_broker(tmp_path)  # wall_epoch unset: restored from meta
    assert resumed.wall_epoch == 5000.0
    assert resumed.wall_time(2) == 5000.0 + 2 * 300.0


def test_wall_epoch_survives_a_resume_before_the_first_checkpoint(tmp_path, monkeypatch):
    """A fresh directory starts with generation 0's snapshot, so the epoch
    the dead process stamped its answers with is on disk before any slot."""
    import time

    broker = make_broker(tmp_path, checkpoint_every=100)  # epoch: time.time()
    for i in range(3):
        broker.submit(submit_fields(i))
    acked = {p.client_id: r["wall_ts"] for p, r in broker.process_slot()}
    broker.process_slot()
    broker.store.close()  # dies before its first checkpoint

    later = time.time() + 1.5
    monkeypatch.setattr(time, "time", lambda: later)
    resumed = make_broker(tmp_path, checkpoint_every=100)
    assert resumed.store.stats()["checkpoints"] == 0
    assert resumed.wall_epoch == broker.wall_epoch
    assert [resumed.wall_time(s) for s in range(2)] == [broker.wall_time(s) for s in range(2)]
    assert state_to_payload(resumed.state)["usage"] == state_to_payload(broker.state)["usage"]
    assert {cid: resumed.decisions[cid]["wall_ts"] for cid in acked} == acked


def test_broker_telemetry_body_shape():
    broker = make_broker(wall_epoch=1000.0)
    broker.submit(submit_fields(0))
    broker.process_slot()
    metrics = obs.MetricsSnapshot()
    body = broker.telemetry(metrics)
    assert body["stats"]["admitted"] == 1
    assert set(body["slo"]) == {
        "admission_ratio", "decision_p99_s", "checkpoint_p99_s",
        "intake_depth", "degraded_slots",
    }
    assert body["wall"]["epoch"] == 1000.0
    assert body["wall"]["slot_wall_seconds"] == 300.0
    assert body["wall"]["next_slot_wall_ts"] == 1000.0 + 300.0
    assert body["snapshot"]["events"] == 0  # nothing folded yet
    assert broker.telemetry(None)["snapshot"] == {}


# -- the metrics op over the wire ------------------------------------------


async def _tick(conn):
    response = await conn.call({"op": "tick"})
    assert response["ok"]


def _daemon_config(tmp_path, **overrides):
    kwargs = dict(
        socket_path=str(tmp_path / "svc.sock"),
        datacenters=4, capacity=50.0, tick_seconds=0.0,
        max_deadline=8, seed=3, wall_epoch=1000.0,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def test_metrics_op_both_formats(tmp_path):
    config = _daemon_config(tmp_path)

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        conn = await Connection.open("", 0, config.socket_path)
        try:
            futures = [
                conn.send({"op": "submit", **submit_fields(i)})
                for i in range(3)
            ]
            await _tick(conn)
            await asyncio.gather(*futures)
            body = await conn.call({"op": "metrics"})
            prom = await conn.call({"op": "metrics", "format": "prometheus"})
            bad = await conn.call({"op": "metrics", "format": "xml"})
        finally:
            await conn.close()
            await daemon.stop()
        return body, prom, bad

    body, prom, bad = asyncio.run(scenario())

    assert body["ok"] and body["format"] == "json"
    assert body["version"] == 3
    assert body["stats"]["admitted"] == 3
    snapshot = body["snapshot"]
    assert snapshot["counters"]["service.admitted"]["total"] == 3
    # Decision-latency histograms with percentile estimates, per lane
    # admission counts, and SLO gauge states — the acceptance shape.
    slot_hist = snapshot["histograms"]["service.slot"]
    assert slot_hist["count"] == 1
    assert 0.0 < slot_hist["p50"] <= slot_hist["p99"]
    assert "service.decision_s" in snapshot["histograms"]
    # One lane leg per slot, counting the slot's three requests.
    assert snapshot["counters"]["service.lane"]["total"] == 3
    assert snapshot["counters"]["service.lane"]["count"] == 1
    assert body["slo"]["admission_ratio"]["ok"] is True
    assert snapshot["gauges"]["slo.ok"]["last"] == 1.0
    assert body["wall"]["next_slot_wall_ts"] == 1000.0 + 300.0

    assert prom["ok"] and prom["format"] == "prometheus"
    assert obs.validate_prometheus(prom["text"]) > 0
    assert "postcard_service_admitted_total" in prom["text"]
    assert "postcard_slo_admission_ratio" in prom["text"]

    assert not bad["ok"]
    assert bad["error"] == "invalid"


def test_telemetry_disabled_still_answers_metrics(tmp_path):
    config = _daemon_config(tmp_path, telemetry=False)

    async def scenario():
        daemon = ServiceDaemon(config)
        assert daemon.metrics is None
        await daemon.start()
        conn = await Connection.open("", 0, config.socket_path)
        try:
            return await conn.call({"op": "metrics"})
        finally:
            await conn.close()
            await daemon.stop()

    body = asyncio.run(scenario())
    assert body["ok"]
    assert body["snapshot"] == {}
    assert "admission_ratio" in body["slo"]


def test_active_connections_gauge_decrements_on_disconnect(tmp_path):
    """The satellite fix: ``service.connections`` only ever counted up;
    the active gauge must fall back to zero when clients disconnect."""
    config = _daemon_config(tmp_path)

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            first = await Connection.open("", 0, config.socket_path)
            second = await Connection.open("", 0, config.socket_path)
            await first.call({"op": "ping"})
            await second.call({"op": "ping"})
            await first.close()
            await second.close()
            # Let the handler tasks run their finally blocks.
            for _ in range(10):
                await asyncio.sleep(0)
                if daemon.metrics.gauge_last(
                    "service.connections.active"
                ) == 0.0:
                    break
            return daemon.metrics.snapshot()
        finally:
            await daemon.stop()

    snapshot = asyncio.run(scenario())
    active = snapshot["gauges"]["service.connections.active"]
    assert active["max"] == 2.0
    assert active["last"] == 0.0
    assert snapshot["counters"]["service.connections"]["total"] == 2


# -- closed-loop load generation -------------------------------------------

def _loadgen_requests(count, seed=11):
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        src, dst = rng.choice(4, size=2, replace=False)
        out.append(TransferRequest(
            int(src), int(dst),
            float(rng.uniform(1.0, 8.0)), int(rng.integers(2, 7)),
        ))
    return out


def test_closed_loop_loadgen_reports_capacity(tmp_path):
    config = _daemon_config(tmp_path, tick_seconds=0.02)

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            return await run_loadgen(
                _loadgen_requests(12),
                socket_path=config.socket_path,
                outstanding=4,
                drain=True,
            )
        finally:
            await daemon.stop()

    result = asyncio.run(scenario())
    assert result.mode == "closed"
    assert result.outstanding == 4
    assert result.submitted == 12
    assert result.failed == 0
    assert result.capacity_per_s > 0.0
    summary = result.summary()
    assert summary["mode"] == "closed"
    assert summary["capacity_per_s"] == pytest.approx(
        result.capacity_per_s, rel=1e-2
    )
    assert result.drained


def test_open_loop_summary_mode_unchanged(tmp_path):
    config = _daemon_config(tmp_path, tick_seconds=0.02)

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            return await run_loadgen(
                _loadgen_requests(6),
                socket_path=config.socket_path,
                rate_per_min=30000.0,
                drain=True,
            )
        finally:
            await daemon.stop()

    result = asyncio.run(scenario())
    assert result.mode == "open"
    assert result.outstanding == 0
    assert result.submitted == 6


# -- the watch dashboard ---------------------------------------------------


def test_render_dashboard_from_telemetry_body():
    broker = make_broker(wall_epoch=1000.0)
    metrics = obs.MetricsSnapshot()
    registry = obs.get_registry()
    registry.add_sink(metrics)
    try:
        for i in range(3):
            broker.submit(submit_fields(i))
        broker.process_slot()
    finally:
        registry.remove_sink(metrics)
    frame = render_dashboard(broker.telemetry(metrics))
    assert "postcard broker" in frame
    assert "SLO objectives" in frame
    assert "admission_ratio" in frame
    assert "service.slot" in frame
    assert "service.admitted" in frame
    assert "ok" in frame and "BREACH" not in frame


def test_render_dashboard_handles_empty_body():
    frame = render_dashboard({})
    assert "postcard broker" in frame


def test_run_watch_polls_a_live_daemon(tmp_path):
    config = _daemon_config(tmp_path)
    frames = []

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        conn = await Connection.open("", 0, config.socket_path)
        try:
            futures = [
                conn.send({"op": "submit", **submit_fields(i)})
                for i in range(2)
            ]
            await _tick(conn)
            await asyncio.gather(*futures)
            return await run_watch(
                socket_path=config.socket_path,
                interval_s=0.01,
                iterations=2,
                clear=False,
                write=frames.append,
            )
        finally:
            await conn.close()
            await daemon.stop()

    rendered = asyncio.run(scenario())
    assert rendered == 2
    assert len(frames) == 2
    assert "SLO objectives" in frames[0]
    assert "\x1b" not in frames[0]  # clear=False stays pipe-safe
