"""Observability: tracing spans, counters/gauges, and run reports.

This package is the measurement substrate for the whole stack.  The
scheduler, LP layer, time-expanded graph builder and simulation engine
are permanently instrumented with hierarchical timing *spans* and
*counters*; with no sink attached the instrumentation is near-free, so
it costs nothing in production paths and lights up on demand:

>>> from repro import obs
>>> with obs.collecting() as fold:
...     _ = run_some_workload()     # doctest: +SKIP
>>> print(obs.render_report(fold))  # doctest: +SKIP

Two sinks ship with the library: :class:`MetricsSnapshot`, the one
fold of the event stream (what :func:`collecting` attaches, what the
daemon's ``metrics`` op serves and :func:`render_report` renders), and
:class:`JsonlSink` (one JSON event per line, the machine-readable
artifact).  The CLI exposes the same machinery as
``python -m repro simulate --profile`` / ``--obs-jsonl PATH`` and
``python -m repro report events.jsonl``.  See docs/OBSERVABILITY.md.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Registry": "repro.obs.registry",
    "Span": "repro.obs.registry",
    "get_registry": "repro.obs.registry",
    "set_registry": "repro.obs.registry",
    "span": "repro.obs.registry",
    "timed_span": "repro.obs.registry",
    "counter": "repro.obs.registry",
    "gauge": "repro.obs.registry",
    "trace": "repro.obs.registry",
    "JsonlSink": "repro.obs.sinks",
    "Histogram": "repro.obs.metrics",
    "MetricsSnapshot": "repro.obs.metrics",
    "SloMonitor": "repro.obs.slo",
    "SloThresholds": "repro.obs.slo",
    "load_events": "repro.obs.sinks",
    "request_legs": "repro.obs.sinks",
    "render_prometheus": "repro.obs.prom",
    "validate_prometheus": "repro.obs.prom",
    "render_report": "repro.obs.report",
    "render_events_report": "repro.obs.report",
    "collecting": "repro.obs.sinks",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
