"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.net.generators import complete_topology
from repro.obs.registry import _NULL_SPAN, Registry


# -- registry basics ------------------------------------------------------


def test_disabled_span_is_cached_noop():
    registry = Registry()
    assert registry.span("anything") is _NULL_SPAN
    assert registry.span("other", attr=1) is _NULL_SPAN
    with registry.span("x"):
        pass  # must be usable as a context manager


def test_enabled_registry_emits_span_events():
    registry = Registry()
    collector = registry.add_sink(obs.Collector(keep_events=True))
    with registry.span("stage", backend="simplex"):
        pass
    assert collector.num_events == 1
    event = collector.events[0]
    assert event["type"] == "span"
    assert event["name"] == "stage"
    assert event["attrs"] == {"backend": "simplex"}
    assert event["dur"] >= 0.0
    assert event["error"] is False


def test_span_nesting_depth_and_parent():
    registry = Registry()
    collector = registry.add_sink(obs.Collector(keep_events=True))
    with registry.span("outer"):
        with registry.span("middle"):
            with registry.span("inner"):
                pass
    by_name = {e["name"]: e for e in collector.events}
    assert by_name["outer"]["depth"] == 0
    assert by_name["outer"]["parent"] is None
    assert by_name["middle"]["depth"] == 1
    assert by_name["middle"]["parent"] == "outer"
    assert by_name["inner"]["depth"] == 2
    assert by_name["inner"]["parent"] == "middle"
    # Inner spans complete first.
    assert [e["name"] for e in collector.events] == ["inner", "middle", "outer"]


def test_span_exception_safety():
    """An exception unwinds the stack and flags the event, then
    propagates; subsequent spans see a clean stack."""
    registry = Registry()
    collector = registry.add_sink(obs.Collector(keep_events=True))
    with pytest.raises(ValueError):
        with registry.span("outer"):
            with registry.span("inner"):
                raise ValueError("boom")
    assert registry._stack == []
    by_name = {e["name"]: e for e in collector.events}
    assert by_name["inner"]["error"] is True
    assert by_name["outer"]["error"] is True
    assert collector.spans["inner"].errors == 1
    with registry.span("after"):
        pass
    assert collector.events[-1]["depth"] == 0


def test_timed_span_measures_without_sinks():
    registry = Registry()
    with registry.timed_span("work") as span:
        sum(range(10000))
    assert span.seconds > 0.0


def test_counters_and_gauges_aggregate():
    registry = Registry()
    collector = registry.add_sink(obs.Collector())
    registry.counter("pivots", 5)
    registry.counter("pivots", 7)
    registry.counter("pivots")  # default increment of 1
    registry.gauge("lambda", 0.25)
    registry.gauge("lambda", 0.75)
    stat = collector.counters["pivots"]
    assert stat.count == 3
    assert stat.total == 13
    assert stat.max == 7
    gauge = collector.gauges["lambda"]
    assert gauge.count == 2
    assert gauge.last == 0.75
    assert gauge.min == 0.25
    assert gauge.max == 0.75


def test_collector_self_time_attribution():
    registry = Registry()
    collector = registry.add_sink(obs.Collector())
    with registry.span("parent"):
        with registry.span("child"):
            pass
    parent = collector.spans["parent"]
    child = collector.spans["child"]
    assert parent.child_seconds == pytest.approx(child.total)
    assert parent.self_seconds == pytest.approx(parent.total - child.total)


def test_add_sink_rejects_non_sinks():
    with pytest.raises(TypeError):
        Registry().add_sink(object())


def test_collecting_context_detaches():
    registry = obs.get_registry()
    with obs.collecting() as collector:
        assert registry.enabled
        with obs.span("inside"):
            pass
    assert not registry.enabled
    assert collector.spans["inside"].count == 1
    # After detach, new events no longer reach the collector.
    obs.counter("late", 1)
    assert "late" not in collector.counters


def test_set_registry_swaps_default():
    replacement = Registry()
    previous = obs.set_registry(replacement)
    try:
        sink = replacement.add_sink(obs.Collector())
        obs.counter("routed", 2)
        assert sink.counter_total("routed") == 2
    finally:
        obs.set_registry(previous)


# -- ambient trace context ------------------------------------------------


def test_trace_context_attaches_to_every_event():
    registry = Registry()
    collector = registry.add_sink(obs.Collector(keep_events=True))
    with registry.trace(trace_ids=["t-1"], slot=3):
        registry.counter("inner.count", 1)
        registry.gauge("inner.level", 0.5)
        with registry.span("inner.span"):
            pass
    registry.counter("outside", 1)
    by_name = {e["name"]: e for e in collector.events}
    for name in ("inner.count", "inner.level", "inner.span"):
        assert by_name[name]["attrs"]["trace_ids"] == ["t-1"]
        assert by_name[name]["attrs"]["slot"] == 3
    assert "attrs" not in by_name["outside"]


def test_trace_frames_nest_inner_wins_event_wins():
    registry = Registry()
    collector = registry.add_sink(obs.Collector(keep_events=True))
    with registry.trace(slot=1, lane="fast"):
        with registry.trace(slot=2):
            registry.counter("a", 1)
            registry.counter("b", 1, lane="lp")
    events = {e["name"]: e for e in collector.events}
    # Inner frame wins on collisions; outer keys still apply.
    assert events["a"]["attrs"] == {"slot": 2, "lane": "fast"}
    # The event's own attrs win over every frame.
    assert events["b"]["attrs"]["lane"] == "lp"


def test_trace_context_unwinds_through_exceptions():
    registry = Registry()
    collector = registry.add_sink(obs.Collector(keep_events=True))
    with pytest.raises(ValueError):
        with registry.trace(trace_ids=["t-9"]):
            raise ValueError("boom")
    assert registry._context == []
    registry.counter("after", 1)
    assert "attrs" not in collector.events[-1]


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
    early = registry.add_sink(obs.Collector(keep_events=True))
    registry.counter("phase", 1)

    late = registry.add_sink(obs.Collector(keep_events=True))
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
    sink = registry.add_sink(obs.Collector(keep_events=True))
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
    collector = obs.Collector().replay(events)
    assert collector.counter_total("count") == 3
    assert collector.spans["outer"].count == 1
    assert collector.gauges["level"].last == 1.5
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
    assert "(no events recorded)" in obs.render_report(obs.Collector())


def test_render_report_sections():
    collector = obs.Collector()
    collector.emit({"type": "span", "name": "lp.solve", "dur": 0.5,
                    "depth": 0, "parent": None})
    collector.emit({"type": "counter", "name": "pivots", "value": 42})
    collector.emit({"type": "gauge", "name": "lam", "value": 0.5})
    text = obs.render_report(collector, title="unit test")
    assert "== unit test ==" in text
    assert "lp.solve" in text
    assert "pivots" in text
    assert "42" in text
    assert "lam" in text


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
    with obs.collecting() as collector:
        result = _run_simulation()
    # Every hot-path stage shows up with nonzero time.
    for name in ("sim.run", "sim.scheduler", "sim.record", "sim.audit",
                 "lp.build", "lp.compile", "lp.solve",
                 "scheduler.build_model"):
        assert name in collector.spans, f"missing span {name}"
        assert collector.spans[name].total > 0.0, f"zero time in {name}"
    assert collector.counter_total("lp.cols") > 0
    assert collector.counter_total("sim.requests") == result.total_requests
    # The array assembler builds no graph.
    assert "timeexp.build" not in collector.spans


def test_simulation_timing_breakdown_matches_result():
    """The collector's sim.scheduler total is the same measurement the
    result reports as solve_seconds, and the scheduler's internal
    stages sum to no more than the scheduler envelope."""
    with obs.collecting() as collector:
        result = _run_simulation()
    sched = collector.spans["sim.scheduler"].total
    assert sched == pytest.approx(result.solve_seconds_total, rel=1e-6)
    internal = collector.spans["scheduler.solve"].total
    assert internal <= sched
    # Nested LP stages fit inside the scheduler solve envelope.
    # lp.compile is itself nested inside lp.solve (backends lower the
    # model under their solve span), so it is not added separately.
    lp_total = (collector.spans["lp.solve"].total
                + collector.spans["scheduler.build_model"].total)
    assert lp_total <= internal * (1 + 1e-6)
    assert collector.spans["lp.compile"].total <= (
        collector.spans["lp.solve"].total * (1 + 1e-6)
    )
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
