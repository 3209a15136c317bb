"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.net.generators import complete_topology
from repro.obs.registry import _NULL_SPAN, Registry
from tests.obs_events import Events


# -- registry basics ------------------------------------------------------


def test_disabled_span_is_cached_noop():
    registry = Registry()
    assert registry.span("anything") is _NULL_SPAN
    assert registry.span("other", attr=1) is _NULL_SPAN
    with registry.span("x"):
        pass  # must be usable as a context manager


def test_enabled_registry_emits_span_events():
    registry = Registry()
    recorder = registry.add_sink(Events())
    with registry.span("stage", backend="simplex"):
        pass
    assert len(recorder.events) == 1
    event = recorder.events[0]
    assert event["type"] == "span"
    assert event["name"] == "stage"
    assert event["attrs"] == {"backend": "simplex"}
    assert event["dur"] >= 0.0
    assert event["error"] is False


def test_span_nesting_depth_and_parent():
    registry = Registry()
    recorder = registry.add_sink(Events())
    with registry.span("outer"):
        with registry.span("middle"):
            with registry.span("inner"):
                pass
    by_name = {e["name"]: e for e in recorder.events}
    assert by_name["outer"]["depth"] == 0
    assert by_name["outer"]["parent"] is None
    assert by_name["middle"]["depth"] == 1
    assert by_name["middle"]["parent"] == "outer"
    assert by_name["inner"]["depth"] == 2
    assert by_name["inner"]["parent"] == "middle"
    # Inner spans complete first.
    assert [e["name"] for e in recorder.events] == ["inner", "middle", "outer"]


def test_span_exception_safety():
    """An exception unwinds the stack and flags the event, then
    propagates; subsequent spans see a clean stack."""
    registry = Registry()
    recorder = registry.add_sink(Events())
    fold = registry.add_sink(obs.MetricsSnapshot())
    with pytest.raises(ValueError):
        with registry.span("outer"):
            with registry.span("inner"):
                raise ValueError("boom")
    assert registry._stack == []
    by_name = {e["name"]: e for e in recorder.events}
    assert by_name["inner"]["error"] is True
    assert by_name["outer"]["error"] is True
    assert fold.span_errors == {"inner": 1, "outer": 1}
    with registry.span("after"):
        pass
    assert recorder.events[-1]["depth"] == 0


def test_timed_span_measures_without_sinks():
    registry = Registry()
    with registry.timed_span("work") as span:
        sum(range(10000))
    assert span.seconds > 0.0


def test_counters_and_gauges_aggregate():
    registry = Registry()
    fold = registry.add_sink(obs.MetricsSnapshot())
    registry.counter("pivots", 5)
    registry.counter("pivots", 7)
    registry.counter("pivots")  # default increment of 1
    registry.gauge("lambda", 0.25)
    registry.gauge("lambda", 0.75)
    assert fold.counters["pivots"] == {"total": 13, "count": 3}
    assert fold.gauges["lambda"] == {"last": 0.75, "min": 0.25, "max": 0.75, "count": 2}


def test_collector_self_time_attribution():
    registry = Registry()
    fold = registry.add_sink(obs.MetricsSnapshot())
    with registry.span("parent"):
        with registry.span("child"):
            pass
    child = fold.span_histograms["child"]
    assert fold.span_child_s == {"parent": child.sum}
    assert "child" not in fold.span_child_s  # a leaf's self time is its total
    assert fold.span_histograms["parent"].sum >= child.sum


def test_add_sink_rejects_non_sinks():
    with pytest.raises(TypeError):
        Registry().add_sink(object())


def test_collecting_context_detaches():
    registry = obs.get_registry()
    with obs.collecting() as fold:
        assert registry.enabled
        with obs.span("inside"):
            pass
    assert not registry.enabled
    assert fold.span_histograms["inside"].count == 1
    # After detach, new events no longer reach the fold.
    obs.counter("late", 1)
    assert "late" not in fold.counters


def test_set_registry_swaps_default():
    replacement = Registry()
    previous = obs.set_registry(replacement)
    try:
        sink = replacement.add_sink(obs.MetricsSnapshot())
        obs.counter("routed", 2)
        assert sink.counter_total("routed") == 2
    finally:
        obs.set_registry(previous)


# -- ambient trace context ------------------------------------------------


def test_trace_context_attaches_to_every_event():
    registry = Registry()
    recorder = registry.add_sink(Events())
    with registry.trace(trace_ids=["t-1"], slot=3):
        registry.counter("inner.count", 1)
        registry.gauge("inner.level", 0.5)
        with registry.span("inner.span"):
            pass
    registry.counter("outside", 1)
    by_name = {e["name"]: e for e in recorder.events}
    for name in ("inner.count", "inner.level", "inner.span"):
        assert by_name[name]["attrs"]["trace_ids"] == ["t-1"]
        assert by_name[name]["attrs"]["slot"] == 3
    assert "attrs" not in by_name["outside"]


def test_trace_frames_nest_inner_wins_event_wins():
    registry = Registry()
    recorder = registry.add_sink(Events())
    with registry.trace(slot=1, lane="fast"):
        with registry.trace(slot=2):
            registry.counter("a", 1)
            registry.counter("b", 1, lane="lp")
    events = {e["name"]: e for e in recorder.events}
    # Inner frame wins on collisions; outer keys still apply.
    assert events["a"]["attrs"] == {"slot": 2, "lane": "fast"}
    # The event's own attrs win over every frame.
    assert events["b"]["attrs"]["lane"] == "lp"


def test_trace_context_unwinds_through_exceptions():
    registry = Registry()
    recorder = registry.add_sink(Events())
    with pytest.raises(ValueError):
        with registry.trace(trace_ids=["t-9"]):
            raise ValueError("boom")
    assert registry._context == []
    registry.counter("after", 1)
    assert "attrs" not in recorder.events[-1]


def test_trace_context_is_free_without_sinks():
    """The no-sink fast path is preserved with a trace frame open: span()
    still hands out the cached no-op singleton and counters return
    before building an event (the micro-check the acceptance criteria
    ask for in place of a bench suite)."""
    registry = Registry()
    with registry.trace(trace_ids=["t-1"]):
        assert registry.span("anything") is _NULL_SPAN
        registry.counter("free", 1)
        registry.gauge("free.level", 1.0)
    assert registry.span("after") is _NULL_SPAN


# -- sink lifecycle mid-run ------------------------------------------------


def test_sink_added_and_removed_mid_run():
    """A sink attached mid-run sees only events from attachment to
    detachment; the registry keeps serving other sinks throughout."""
    registry = Registry()
    early = registry.add_sink(obs.MetricsSnapshot())
    registry.counter("phase", 1)

    late = registry.add_sink(obs.MetricsSnapshot())
    registry.counter("phase", 1)

    registry.remove_sink(late)
    registry.counter("phase", 1)

    assert early.counter_total("phase") == 3
    assert late.counter_total("phase") == 1
    # Removing an already-removed sink is a no-op.
    registry.remove_sink(late)
    assert registry.enabled
    registry.remove_sink(early)
    assert not registry.enabled


def test_sink_removed_inside_open_span_still_gets_no_event():
    registry = Registry()
    sink = registry.add_sink(obs.MetricsSnapshot())
    span = registry.span("stage")
    with span:
        registry.remove_sink(sink)
    # The span completed after detachment: nothing reached the sink,
    # and the registry's stack unwound cleanly.
    assert sink.num_events == 0
    assert registry._stack == []


# -- JSONL sink round-trip ------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    registry = Registry()
    with obs.JsonlSink(path) as sink:
        registry.add_sink(sink)
        with registry.span("outer", tag="x"):
            registry.counter("count", 3)
        registry.gauge("level", 1.5)
        registry.remove_sink(sink)
    assert sink.num_events == 3

    events = obs.load_events(path)
    assert [e["type"] for e in events] == ["counter", "span", "gauge"]
    fold = obs.MetricsSnapshot()
    for event in events:
        fold.emit(event)
    assert fold.counter_total("count") == 3
    assert fold.span_histograms["outer"].count == 1
    assert fold.gauge_last("level") == 1.5
    # The rendered report mentions every name.
    text = obs.render_events_report(events)
    assert "outer" in text and "count" in text and "level" in text


def test_load_events_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "span", "name": "ok", "dur": 0.1}\nnot json\n')
    with pytest.raises(ObservabilityError, match="bad.jsonl:2"):
        obs.load_events(path)


def test_load_events_rejects_unknown_shape(tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"figure": "fig6", "means": {}}\n')
    with pytest.raises(ObservabilityError, match="not an observability event"):
        obs.load_events(path)


def test_load_events_missing_file(tmp_path):
    with pytest.raises(ObservabilityError, match="cannot read"):
        obs.load_events(tmp_path / "nope.jsonl")


def test_load_events_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('\n{"type": "counter", "name": "c", "value": 1}\n\n')
    assert len(obs.load_events(path)) == 1


# -- report rendering -----------------------------------------------------


def test_render_report_empty_collector():
    assert "(no events recorded)" in obs.render_report(obs.MetricsSnapshot())


def test_render_report_sections():
    fold = obs.MetricsSnapshot()
    fold.emit({"type": "span", "name": "lp.solve", "dur": 0.5,
               "depth": 0, "parent": None})
    fold.emit({"type": "counter", "name": "pivots", "value": 42})
    fold.emit({"type": "gauge", "name": "lam", "value": 0.5})
    text = obs.render_report(fold, title="unit test")
    assert "== unit test ==" in text
    assert "lp.solve" in text
    assert "pivots" in text
    assert "42" in text
    assert "lam" in text


#: A fixed stream: nested spans (one error each at two depths), counters
#: with a fractional total, gauges, an ``_s`` gauge and ``hist`` samples.
_GOLDEN_EVENTS = [
    {"type": "span", "name": "leaf", "dur": 0.02, "depth": 2, "parent": "inner", "error": False},
    {"type": "span", "name": "inner", "dur": 0.1, "depth": 1, "parent": "outer", "error": False},
    {"type": "counter", "name": "lp.cols", "value": 10},
    {"type": "span", "name": "inner", "dur": 0.15, "depth": 1, "parent": "outer", "error": True},
    {"type": "counter", "name": "lp.cols", "value": 20},
    {"type": "gauge", "name": "lambda", "value": 0.25},
    {"type": "span", "name": "sibling", "dur": 0.05, "depth": 1, "parent": "outer", "error": False},
    {"type": "hist", "name": "forecast.error_gb", "value": -1.5},
    {"type": "gauge", "name": "service.decision_s", "value": 0.002},
    {"type": "counter", "name": "lp.cols", "value": 12.5},
    {"type": "gauge", "name": "lambda", "value": 0.75},
    {"type": "hist", "name": "forecast.error_gb", "value": 2.0},
    {"type": "span", "name": "outer", "dur": 0.5, "depth": 0, "parent": None, "error": True},
    {"type": "counter", "name": "pivots", "value": 7},
    {"type": "gauge", "name": "service.decision_s", "value": 0.004},
    {"type": "gauge", "name": "lambda", "value": 0.5},
    {"type": "gauge", "name": "depth", "value": 3},
    {"type": "hist", "name": "forecast.error_gb", "value": 0.5},
    {"type": "span", "name": "setup", "dur": 0.03, "depth": 0, "parent": None, "error": False},
]

#: ``render_events_report(_GOLDEN_EVENTS, title="golden")`` as printed
#: when a separate batch collector folded the stream for the report: it
#: had a counter ``max`` column and showed ``hist`` samples as gauges.
_GOLDEN_BEFORE = """\
== golden ==

spans:
span     count  total s  self s  mean ms  self %  err
-------  -----  -------  ------  -------  ------  ---
outer    1      0.5000   0.2000  500.00   37.7%   1
inner    2      0.2500   0.2300  125.00   43.4%   1
sibling  1      0.0500   0.0500  50.00    9.4%    0
setup    1      0.0300   0.0300  30.00    5.7%    0
leaf     1      0.0200   0.0200  20.00    3.8%    0

counters:
counter  samples  total   max
-------  -------  ------  ---
lp.cols  3        42.500  20
pivots   1        7       7

gauges:
gauge               samples  last   min     max
------------------  -------  -----  ------  -----
depth               1        3      3       3
forecast.error_gb   3        0.500  -1.500  2
lambda              3        0.500  0.250   0.750
service.decision_s  2        0.004  0.002   0.004"""


def _table_rows(text, section):
    """The data rows of one report section, split into cells."""
    block = text.split(f"{section}:\n", 1)[1].split("\n\n", 1)[0]
    return [line.split() for line in block.splitlines()[2:]]


def test_report_rows_match_the_batch_collectors_report():
    text = obs.render_events_report(_GOLDEN_EVENTS, title="golden")
    spans = text.split("\n\ncounters:", 1)[0]
    assert spans == _GOLDEN_BEFORE.split("\n\ncounters:", 1)[0]
    assert _table_rows(text, "counters") == [
        row[:-1] for row in _table_rows(_GOLDEN_BEFORE, "counters")]
    assert _table_rows(text, "gauges") == [
        row for row in _table_rows(_GOLDEN_BEFORE, "gauges")
        if row[0] != "forecast.error_gb"]
    distributions = {row[0]: row[1:] for row in _table_rows(text, "distributions")}
    assert set(distributions) == {"forecast.error_gb", "service.decision_s"}
    assert distributions["forecast.error_gb"][:2] == ["3", "0.3333"]
    assert distributions["forecast.error_gb"][-1] == "2"
    assert distributions["service.decision_s"][:3] == ["2", "0.003", "0.002"]


# -- end-to-end through the simulation stack ------------------------------


def _run_simulation(**scheduler_kw):
    from repro.core import PostcardScheduler
    from repro.sim import Simulation
    from repro.traffic import PaperWorkload

    topology = complete_topology(4, capacity=30.0, seed=0)
    scheduler = PostcardScheduler(
        topology, horizon=8, on_infeasible="drop", **scheduler_kw
    )
    workload = PaperWorkload(topology, max_deadline=3, max_files=3, seed=5)
    return Simulation(scheduler, workload, 3).run()


def test_simulation_emits_stage_breakdown():
    with obs.collecting() as fold:
        result = _run_simulation()
    # Every hot-path stage shows up with nonzero time.
    for name in ("sim.run", "sim.scheduler", "sim.record", "sim.audit",
                 "lp.build", "lp.compile", "lp.solve",
                 "scheduler.build_model"):
        assert name in fold.span_histograms, f"missing span {name}"
        assert fold.span_histograms[name].sum > 0.0, f"zero time in {name}"
    assert fold.counter_total("lp.cols") > 0
    assert fold.counter_total("sim.requests") == result.total_requests
    # The array assembler builds no graph.
    assert "timeexp.build" not in fold.span_histograms


def test_simulation_timing_breakdown_matches_result():
    """The fold's sim.scheduler total is the same measurement the
    result reports as solve_seconds, and the scheduler's internal
    stages sum to no more than the scheduler envelope."""
    with obs.collecting() as fold:
        result = _run_simulation()
    seconds = {name: hist.sum for name, hist in fold.span_histograms.items()}
    sched = seconds["sim.scheduler"]
    assert sched == pytest.approx(result.solve_seconds_total, rel=1e-6)
    internal = seconds["scheduler.solve"]
    assert internal <= sched
    # Nested LP stages fit inside the scheduler solve envelope.
    # lp.compile is itself nested inside lp.solve (backends lower the
    # model under their solve span), so it is not added separately.
    lp_total = seconds["lp.solve"] + seconds["scheduler.build_model"]
    assert lp_total <= internal * (1 + 1e-6)
    assert seconds["lp.compile"] <= seconds["lp.solve"] * (1 + 1e-6)
    # Envelope minus internals is engine/commit overhead, small but >= 0.
    assert sched - internal >= 0.0
    assert result.overhead_seconds_total > 0.0
    assert result.audit_seconds > 0.0
    assert len(result.slots) == result.num_slots
    assert result.solve_seconds_total == pytest.approx(
        sum(r.solve_seconds for r in result.slots)
    )


def test_simulation_runs_clean_without_sinks():
    """No sink attached: same simulation, no events, results intact."""
    registry = obs.get_registry()
    assert not registry.enabled
    result = _run_simulation()
    assert result.total_requests > 0
    assert result.solve_seconds_total > 0.0


def test_jsonl_events_from_simulation_render(tmp_path):
    path = tmp_path / "sim-events.jsonl"
    registry = obs.get_registry()
    sink = obs.JsonlSink(path)
    registry.add_sink(sink)
    try:
        _run_simulation()
    finally:
        registry.remove_sink(sink)
        sink.close()
    events = obs.load_events(path)
    assert events, "simulation produced no events"
    text = obs.render_events_report(events)
    assert "lp.solve" in text and "sim.scheduler" in text
    # Round-trip: every line is valid standalone JSON.
    for line in path.read_text().splitlines():
        json.loads(line)
