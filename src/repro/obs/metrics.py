"""Streaming metrics: fixed-bucket histograms and the one aggregating sink.

* :class:`Histogram` — fixed log-spaced buckets sized for latencies
  (microseconds to minutes), with p50/p90/p99 estimation by rank
  interpolation inside the bucket.  O(#buckets) memory however many
  values are observed.
* :class:`MetricsSnapshot` — a sink that *folds* events into state:
  counter sums, gauge last/min/max, a histogram per span name (span
  durations, with child time for self-time) and per seconds-valued
  gauge or ``hist`` sample.  :meth:`snapshot` returns a JSON-safe view
  of everything at that instant and never mutates the fold, so
  repeated queries are idempotent.

It is the only fold of the event stream: the daemon serves its
:meth:`snapshot` through the ``metrics`` op (and :mod:`repro.obs.prom`
as Prometheus text); ``--profile``, ``repro report`` and the benchmark
harness fold a run with :func:`repro.obs.collecting`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ObservabilityError


def _log_bounds(lo: float, hi: float, per_decade: int) -> List[float]:
    """Log-spaced bucket upper bounds covering ``[lo, hi]``."""
    count = int(math.ceil(per_decade * math.log10(hi / lo))) + 1
    ratio = 10.0 ** (1.0 / per_decade)
    return [lo * ratio**i for i in range(count)]


#: Default bounds: 31 edges from 10 µs to 10**2.5 ≈ 316 s, 4 buckets per
#: decade (ratio ~1.78x, so a quantile estimate is within one bucket ratio
#: of the true value).  ``hist`` samples (forecast errors, in GB) share
#: them.
DEFAULT_LATENCY_BOUNDS = _log_bounds(1e-5, 200.0, 4)


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    strictly increasing order; one implicit overflow bucket catches
    everything above the last bound.  Exact ``count``/``sum``/``min``/
    ``max`` are tracked alongside, so means are exact and quantile
    estimates are clamped into the observed range.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None):
        self.bounds: List[float] = list(
            DEFAULT_LATENCY_BOUNDS if bounds is None else bounds
        )
        if not self.bounds or any(
            b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])
        ):
            raise ObservabilityError(
                "histogram bounds must be non-empty and strictly increasing"
            )
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording -------------------------------------------------------

    def observe(self, value: float) -> None:
        """Fold one sample in (negative values clamp into bucket 0)."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        bounds = self.bounds
        lo, hi = 0, len(bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # -- queries ---------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile (``q`` in [0, 1]).

        The estimate interpolates the rank linearly inside the bucket
        holding it, so the error is bounded by one bucket's width (one
        ratio step for the default log bounds), and is clamped into the
        exact observed ``[min, max]`` range.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - seen) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return max(self.min, min(self.max, estimate))
            seen += bucket_count
        return self.max

    def percentiles(self) -> Dict[str, float]:
        """The standard reporting set: p50/p90/p99 plus mean/min/max."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.6f})"


class MetricsSnapshot:
    """A sink folding events into queryable current-value state.

    * counters -> running sums (plus increment counts);
    * gauges -> last/min/max/count, and a :class:`Histogram` as well
      when the gauge name ends in ``_s`` (a seconds-valued sample —
      e.g. per-request ``service.decision_s``);
    * spans -> a :class:`Histogram` of durations per span name, an
      error tally, and the seconds spent in each span's direct children
      (``span_child_s``; a span's self time is its sum minus that).

    :meth:`snapshot` is a pure read — calling it twice without new
    events returns equal dicts (snapshot idempotence), and it never
    resets the fold.
    """

    def __init__(self, histogram_bounds: Optional[Sequence[float]] = None):
        self._bounds = list(
            DEFAULT_LATENCY_BOUNDS if histogram_bounds is None else histogram_bounds
        )
        self.counters: Dict[str, Dict[str, float]] = {}
        self.gauges: Dict[str, Dict[str, float]] = {}
        self.span_histograms: Dict[str, Histogram] = {}
        self.span_errors: Dict[str, int] = {}
        self.span_child_s: Dict[str, float] = {}
        self.gauge_histograms: Dict[str, Histogram] = {}
        self.num_events = 0

    # -- the sink interface ----------------------------------------------

    def emit(self, event: Dict[str, Any]) -> None:
        self.num_events += 1
        kind = event.get("type")
        name = event.get("name", "?")
        if kind == "span":
            hist = self.span_histograms.get(name)
            if hist is None:
                hist = self.span_histograms[name] = Histogram(self._bounds)
            dur = float(event.get("dur", 0.0))
            hist.observe(dur)
            if event.get("error"):
                self.span_errors[name] = self.span_errors.get(name, 0) + 1
            parent = event.get("parent")
            if parent is not None:
                self.span_child_s[parent] = self.span_child_s.get(parent, 0.0) + dur
        elif kind == "counter":
            value = float(event.get("value", 0.0))
            stat = self.counters.get(name)
            if stat is None:
                stat = self.counters[name] = {"total": 0.0, "count": 0}
            stat["total"] += value
            stat["count"] += 1
        elif kind == "gauge":
            value = float(event.get("value", 0.0))
            stat = self.gauges.get(name)
            if stat is None:
                stat = self.gauges[name] = {
                    "last": value, "min": value, "max": value, "count": 0,
                }
            stat["last"] = value
            stat["min"] = min(stat["min"], value)
            stat["max"] = max(stat["max"], value)
            stat["count"] += 1
            if name.endswith("_s"):
                hist = self.gauge_histograms.get(name)
                if hist is None:
                    hist = self.gauge_histograms[name] = Histogram(self._bounds)
                hist.observe(value)
        elif kind == "hist":
            # Explicit distribution samples (e.g. forecast errors):
            # folded like the seconds-valued gauges, whatever the unit.
            value = float(event.get("value", 0.0))
            hist = self.gauge_histograms.get(name)
            if hist is None:
                hist = self.gauge_histograms[name] = Histogram(self._bounds)
            hist.observe(value)

    # -- queries ---------------------------------------------------------

    def counter_total(self, name: str) -> float:
        stat = self.counters.get(name)
        return stat["total"] if stat else 0.0

    def gauge_last(self, name: str) -> Optional[float]:
        stat = self.gauges.get(name)
        return stat["last"] if stat else None

    def histogram(self, name: str) -> Optional[Histogram]:
        """The histogram under ``name`` (span first, then gauge)."""
        return self.span_histograms.get(name) or self.gauge_histograms.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """Everything folded so far, as one JSON-safe dict.

        Shape (also the ``metrics`` op's ``snapshot`` body)::

            {"events": N,
             "counters": {name: {"total", "count"}},
             "gauges": {name: {"last", "min", "max", "count"}},
             "histograms": {name: {"kind", "count", "mean", "min",
                                   "max", "p50", "p90", "p99",
                                   "errors"?}}}
        """
        histograms: Dict[str, Any] = {}
        for name, hist in self.span_histograms.items():
            entry = dict(hist.percentiles())
            entry["kind"] = "span"
            errors = self.span_errors.get(name, 0)
            if errors:
                entry["errors"] = errors
            histograms[name] = entry
        for name, hist in self.gauge_histograms.items():
            entry = dict(hist.percentiles())
            entry["kind"] = "gauge"
            histograms[name] = entry
        return {
            "events": self.num_events,
            "counters": {
                name: dict(stat) for name, stat in sorted(self.counters.items())
            },
            "gauges": {
                name: dict(stat) for name, stat in sorted(self.gauges.items())
            },
            "histograms": dict(sorted(histograms.items())),
        }

    def __repr__(self) -> str:
        return (
            f"MetricsSnapshot(events={self.num_events}, "
            f"counters={len(self.counters)}, gauges={len(self.gauges)}, "
            f"histograms={len(self.span_histograms) + len(self.gauge_histograms)})"
        )
