"""Unit tests for streaming metrics, Prometheus exposition, and SLOs."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, Histogram, MetricsSnapshot
from repro.obs.prom import metric_name, render_prometheus, validate_prometheus
from repro.obs.slo import SloMonitor, SloThresholds


# -- histogram -------------------------------------------------------------


def test_histogram_bounds_validation():
    with pytest.raises(ObservabilityError, match="strictly increasing"):
        Histogram([1.0, 1.0, 2.0])
    with pytest.raises(ObservabilityError, match="strictly increasing"):
        Histogram([])


def test_histogram_exact_stats():
    hist = Histogram()
    for value in (0.001, 0.01, 0.1):
        hist.observe(value)
    assert hist.count == 3
    assert hist.sum == pytest.approx(0.111)
    assert hist.mean == pytest.approx(0.037)
    assert hist.min == 0.001
    assert hist.max == 0.1


def test_histogram_quantile_accuracy_bound():
    """Rank-interpolated quantiles stay within one bucket ratio of the
    exact value (the documented accuracy contract for the default
    log-spaced bounds, ratio 10^(1/4) ~ 1.78)."""
    ratio = 10.0 ** 0.25
    values = [1e-4 * (1.13 ** i) for i in range(80)]  # 0.1ms .. ~1.5s
    hist = Histogram()
    for value in values:
        hist.observe(value)
    ordered = sorted(values)
    for q in (0.50, 0.90, 0.99):
        exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        estimate = hist.quantile(q)
        assert exact / ratio <= estimate <= exact * ratio, (
            f"q={q}: estimate {estimate} vs exact {exact}"
        )


def test_histogram_quantile_clamps_to_observed_range():
    hist = Histogram()
    hist.observe(0.005)
    assert hist.quantile(0.0) == 0.005
    assert hist.quantile(1.0) == 0.005
    assert hist.quantile(0.5) == 0.005
    with pytest.raises(ObservabilityError, match="quantile"):
        hist.quantile(1.5)


def test_histogram_overflow_and_negative_samples():
    hist = Histogram([0.1, 1.0])
    hist.observe(-5.0)   # clamps into bucket 0
    hist.observe(50.0)   # overflow bucket
    assert hist.counts[0] == 1
    assert hist.counts[-1] == 1
    assert hist.min == -5.0
    assert hist.max == 50.0
    assert hist.quantile(1.0) == 50.0


def test_histogram_empty_queries():
    hist = Histogram()
    assert hist.quantile(0.5) == 0.0
    assert hist.mean == 0.0
    assert hist.percentiles() == {"count": 0}


def test_default_bounds_cover_latency_range():
    # 4 per decade from 10 µs, rounded up past 200 s: 31 bounds, the last
    # 10**2.5 ≈ 316.2 s.  The metrics op's quantiles and the Prometheus
    # `le` labels are read off these edges.
    assert len(DEFAULT_LATENCY_BOUNDS) == 31
    assert DEFAULT_LATENCY_BOUNDS[0] == 1e-5
    assert abs(DEFAULT_LATENCY_BOUNDS[-1] - 10**2.5) < 1e-9


# -- the snapshot sink -----------------------------------------------------


def _folded_snapshot():
    sink = MetricsSnapshot()
    registry = obs.Registry()
    registry.add_sink(sink)
    with registry.span("service.slot", slot=0):
        pass
    with pytest.raises(RuntimeError):
        with registry.span("service.slot"):
            raise RuntimeError("boom")
    registry.counter("service.admitted", 3)
    registry.counter("service.admitted", 2)
    registry.gauge("service.queue_depth", 4)
    registry.gauge("service.queue_depth", 1)
    registry.gauge("service.decision_s", 0.012)
    registry.gauge("service.decision_s", 0.034)
    return sink


def test_metrics_snapshot_folds_events():
    sink = _folded_snapshot()
    snap = sink.snapshot()
    assert snap["counters"]["service.admitted"] == {"total": 5.0, "count": 2}
    gauge = snap["gauges"]["service.queue_depth"]
    assert (gauge["last"], gauge["min"], gauge["max"]) == (1.0, 1.0, 4.0)
    span_hist = snap["histograms"]["service.slot"]
    assert span_hist["kind"] == "span"
    assert span_hist["count"] == 2
    assert span_hist["errors"] == 1
    # Seconds-valued gauges get a histogram of their own.
    decision = snap["histograms"]["service.decision_s"]
    assert decision["kind"] == "gauge"
    assert decision["count"] == 2
    assert sink.counter_total("service.admitted") == 5.0
    assert sink.gauge_last("service.queue_depth") == 1.0
    assert sink.histogram("service.slot").count == 2
    assert sink.gauge_last("missing") is None


def test_metrics_snapshot_is_idempotent_and_json_safe():
    sink = _folded_snapshot()
    first = sink.snapshot()
    second = sink.snapshot()
    assert first == second
    json.dumps(first)  # must not raise
    # Reading never resets the fold.
    assert sink.counter_total("service.admitted") == 5.0


# -- prometheus exposition -------------------------------------------------


def test_metric_name_mangling():
    assert metric_name("service.decision_s") == "postcard_service_decision_s"
    assert metric_name("slo.ok") == "postcard_slo_ok"


def test_render_prometheus_round_trips_the_lint():
    sink = _folded_snapshot()
    snapshot = sink.snapshot()
    snapshot["slo"] = {
        "admission_ratio": {"value": 0.97, "budget": 0.95, "ok": True},
    }
    text = render_prometheus(snapshot)
    assert "# TYPE postcard_service_admitted_total counter" in text
    assert "postcard_service_admitted_total 5.0" in text
    assert 'postcard_service_slot_summary{quantile="0.99"}' in text
    assert "postcard_slo_admission_ratio_ok 1.0" in text
    assert validate_prometheus(text) > 0


def test_render_prometheus_skips_empty_histograms():
    text = render_prometheus({
        "counters": {"c": {"total": 1.0, "count": 1}},
        "histograms": {"empty": {"count": 0}},
    })
    assert "empty" not in text
    assert validate_prometheus(text) == 1


def test_validate_prometheus_rejects_classic_bugs():
    with pytest.raises(ObservabilityError, match="no TYPE header"):
        validate_prometheus("orphan 1.0\n")
    with pytest.raises(ObservabilityError, match="duplicate metric family"):
        validate_prometheus(
            "# TYPE postcard_x gauge\npostcard_x 1\n"
            "# TYPE postcard_x gauge\npostcard_x 2\n"
        )
    with pytest.raises(ObservabilityError, match="interleaved"):
        validate_prometheus(
            "# TYPE postcard_a gauge\n"
            "# TYPE postcard_b gauge\n"
            "postcard_a 1\n"
        )
    with pytest.raises(ObservabilityError, match="non-numeric"):
        validate_prometheus("# TYPE postcard_x gauge\npostcard_x lots\n")
    with pytest.raises(ObservabilityError, match="unparseable"):
        validate_prometheus("# TYPE postcard_x gauge\n!!! ???\n")
    with pytest.raises(ObservabilityError, match="no samples"):
        validate_prometheus("# TYPE postcard_x gauge\n")


# -- SLO monitor -----------------------------------------------------------


def test_slo_all_ok_when_idle():
    states = SloMonitor(window=8).evaluate()
    assert set(states) == {
        "admission_ratio", "decision_p99_s", "checkpoint_p99_s",
        "intake_depth", "degraded_slots",
    }
    assert all(state["ok"] for state in states.values())


def test_slo_detects_breaches_against_budgets():
    monitor = SloMonitor(
        SloThresholds(
            min_admission_ratio=0.9,
            decision_budget_s=0.1,
            checkpoint_budget_s=0.5,
            max_intake_depth=4,
        ),
        window=8,
    )
    monitor.record_slot(admitted=1, rejected=3, decision_s=0.2, depth=9)
    monitor.record_checkpoint(2.0)
    states = monitor.evaluate()
    assert not states["admission_ratio"]["ok"]
    assert not states["decision_p99_s"]["ok"]
    assert not states["checkpoint_p99_s"]["ok"]
    assert not states["intake_depth"]["ok"]
    assert states["admission_ratio"]["value"] == pytest.approx(0.25)
    assert states["intake_depth"]["value"] == 9.0


def test_slo_window_rolls_off_old_samples():
    monitor = SloMonitor(SloThresholds(min_admission_ratio=0.9), window=4)
    monitor.record_slot(0, 4, 0.001, 0)  # bad slot
    assert not monitor.evaluate()["admission_ratio"]["ok"]
    for _ in range(4):  # four good slots push the bad one out
        monitor.record_slot(4, 0, 0.001, 0)
    state = monitor.evaluate()["admission_ratio"]
    assert state["ok"]
    assert state["value"] == 1.0
    assert state["window"] == 4


def test_slo_emits_gauges_and_breach_edges():
    monitor = SloMonitor(
        SloThresholds(min_admission_ratio=0.9, max_intake_depth=100),
        window=4,
    )
    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        sink = registry.add_sink(MetricsSnapshot())
        monitor.record_slot(0, 4, 0.001, 0)
        monitor.evaluate(emit=True)
        monitor.evaluate(emit=True)  # still breaching: no new edge
        assert monitor.breaches == 1
        assert sink.counter_total("slo.breaches") == 1
        assert sink.gauge_last("slo.admission_ratio") == 0.0
        assert sink.gauge_last("slo.ok") == 0.0
        for _ in range(4):
            monitor.record_slot(4, 0, 0.001, 0)
        monitor.evaluate(emit=True)
        assert sink.gauge_last("slo.ok") == 1.0
        monitor.record_slot(0, 40, 0.001, 0)
        monitor.evaluate(emit=True)  # ok -> breach again
        assert monitor.breaches == 2
    finally:
        obs.set_registry(previous)


def test_slo_evaluate_without_emit_is_pure():
    monitor = SloMonitor(SloThresholds(min_admission_ratio=0.9), window=4)
    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        sink = registry.add_sink(MetricsSnapshot())
        monitor.record_slot(0, 4, 0.001, 0)
        monitor.evaluate()
        monitor.evaluate()
        assert monitor.breaches == 0
        assert sink.num_events == 0
    finally:
        obs.set_registry(previous)


def test_slo_rejects_bad_window():
    with pytest.raises(ValueError, match="window"):
        SloMonitor(window=0)
