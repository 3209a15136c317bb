"""The instrumentation registry: spans, counters, gauges, and sinks.

A :class:`Registry` is a fan-out point: instrumented code emits
*events* (span completions, counter increments, gauge samples) and the
registry forwards each event to every attached sink.  With no sink
attached the fast paths collapse to a single attribute check — a
cached no-op span object is returned and counters return immediately —
so instrumentation can stay permanently compiled into the hot path.

Spans nest: the registry keeps an explicit stack, and every completed
span records its depth and its parent's name, which is what lets a
report attribute child time to parents ("self time").  The stack is
maintained in ``__exit__``, so spans unwind correctly through
exceptions.

Everything here is stdlib-only by design; sinks that need heavier
machinery live in :mod:`repro.obs.sinks`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class _NullSpan:
    """The no-op span handed out when no sink is listening.

    A single cached instance is reused for every disabled ``span()``
    call, so the disabled path allocates nothing.
    """

    __slots__ = ()

    #: Disabled spans measure nothing.
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """A live timing span; use via ``with registry.span(name):``.

    After ``__exit__`` the wall-clock duration is available as
    :attr:`seconds`, whether or not any sink received the event (the
    simulation engine relies on this to fill ``SlotRecord`` timings
    even in un-instrumented runs).
    """

    __slots__ = ("_registry", "_emit", "name", "attrs", "seconds", "_start",
                 "depth", "parent")

    def __init__(self, registry: "Registry", name: str,
                 attrs: Dict[str, Any], emit: bool):
        self._registry = registry
        self._emit = emit
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0
        self.depth = 0
        self.parent: Optional[str] = None

    def __enter__(self) -> "Span":
        stack = self._registry._stack
        self.depth = len(stack)
        self.parent = stack[-1].name if stack else None
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._start
        stack = self._registry._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: mismatched nesting
            stack.remove(self)
        if self._emit or self._registry._sinks:
            event = {
                "type": "span",
                "name": self.name,
                "dur": self.seconds,
                "depth": self.depth,
                "parent": self.parent,
                "error": exc_type is not None,
            }
            if self.attrs:
                event["attrs"] = self.attrs
            self._registry._dispatch(event)
        return False


class Registry:
    """Routes instrumentation events to attached sinks.

    Sinks are any objects with an ``emit(event: dict)`` method; see
    :mod:`repro.obs.sinks` for the provided ones.  A registry with no
    sinks is effectively free to call into.
    """

    def __init__(self) -> None:
        self._sinks: List[Any] = []
        self._stack: List[Span] = []
        #: Ambient attributes merged into every dispatched event (the
        #: trace-propagation mechanism; see :meth:`trace`).
        self._context: List[Dict[str, Any]] = []

    # -- sink management -------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when at least one sink is attached."""
        return bool(self._sinks)

    def add_sink(self, sink: Any) -> Any:
        """Attach a sink; returns it for chaining."""
        if not hasattr(sink, "emit"):
            raise TypeError(
                f"sink {type(sink).__name__} has no emit(event) method"
            )
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> None:
        """Detach a sink; missing sinks are ignored."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def _dispatch(self, event: Dict[str, Any]) -> None:
        if self._context:
            merged: Dict[str, Any] = {}
            for frame in self._context:
                merged.update(frame)
            merged.update(event.get("attrs", ()))
            event["attrs"] = merged
        for sink in self._sinks:
            sink.emit(event)

    @contextmanager
    def trace(self, **attrs: Any) -> Iterator[None]:
        """Attach ambient attrs to every event emitted in the block.

        This is how a trace id crosses layers that know nothing about
        it: the slot loop opens ``trace(trace_ids=[...])`` around the
        scheduler call, and the hybrid lane choice, LP solve, and
        ledger-charge events deep inside all carry the ids without any
        plumbing through their signatures.  Frames nest; inner frames
        win on key collisions, and an event's own attrs win over every
        frame.  With no sink attached the cost is one list append/pop.
        """
        self._context.append(attrs)
        try:
            yield
        finally:
            self._context.pop()

    # -- instrumentation primitives -------------------------------------

    def span(self, name: str, **attrs: Any) -> Any:
        """A context manager timing a named stage.

        Returns the cached no-op span when no sink is attached, so the
        disabled cost is one list truthiness check.
        """
        if not self._sinks:
            return _NULL_SPAN
        return Span(self, name, attrs, emit=True)

    def timed_span(self, name: str, **attrs: Any) -> Span:
        """Like :meth:`span`, but always measures wall time.

        The returned span's :attr:`Span.seconds` is valid after the
        ``with`` block even with no sink attached (the event is then
        simply not emitted).  Use where the caller needs the number
        itself, e.g. the simulation engine's per-slot records.
        """
        return Span(self, name, attrs, emit=False)

    def counter(self, name: str, value: float = 1.0, **attrs: Any) -> None:
        """Add ``value`` to the named counter (monotonic increments)."""
        if not self._sinks:
            return
        event: Dict[str, Any] = {"type": "counter", "name": name,
                                 "value": value}
        if attrs:
            event["attrs"] = attrs
        self._dispatch(event)

    def gauge(self, name: str, value: float, **attrs: Any) -> None:
        """Record a point-in-time sample of the named gauge."""
        if not self._sinks:
            return
        event: Dict[str, Any] = {"type": "gauge", "name": name,
                                 "value": value}
        if attrs:
            event["attrs"] = attrs
        self._dispatch(event)

    def histogram(self, name: str, value: float, **attrs: Any) -> None:
        """Record a distribution sample of the named histogram.

        Gauges report *state* (last/min/max); histogram samples report
        a *distribution* — :class:`~repro.obs.metrics.MetricsSnapshot`
        folds them into percentile estimates regardless of the unit
        (forecast errors in GB, not just latencies in seconds)."""
        if not self._sinks:
            return
        event: Dict[str, Any] = {"type": "hist", "name": name,
                                 "value": value}
        if attrs:
            event["attrs"] = attrs
        self._dispatch(event)


#: The process-wide default registry all library instrumentation uses.
_default_registry = Registry()


def get_registry() -> Registry:
    """The global default registry (what the module-level helpers use)."""
    return _default_registry


def set_registry(registry: Registry) -> Registry:
    """Swap the global default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def span(name: str, **attrs: Any) -> Any:
    """``with span("lp.solve", backend="highs"):`` on the default registry."""
    return _default_registry.span(name, **attrs)


def timed_span(name: str, **attrs: Any) -> Span:
    """Always-timing span on the default registry (see
    :meth:`Registry.timed_span`)."""
    return _default_registry.timed_span(name, **attrs)


def counter(name: str, value: float = 1.0, **attrs: Any) -> None:
    """Increment a counter on the default registry."""
    _default_registry.counter(name, value, **attrs)


def trace(**attrs: Any) -> Any:
    """Ambient-attr context on the default registry (see
    :meth:`Registry.trace`)."""
    return _default_registry.trace(**attrs)


def gauge(name: str, value: float, **attrs: Any) -> None:
    """Sample a gauge on the default registry."""
    _default_registry.gauge(name, value, **attrs)


def histogram(name: str, value: float, **attrs: Any) -> None:
    """Record a histogram sample on the default registry."""
    _default_registry.histogram(name, value, **attrs)
