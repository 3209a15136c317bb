"""Render a fold of the event stream into a plain-text run report.

The report is up to four :func:`~repro.analysis.tables.format_table`
sections read from one :class:`~repro.obs.metrics.MetricsSnapshot` —
spans (sorted by total time, with self-time so nested stages don't
double-read), counters, gauges, and distributions (the fold's
histograms of ``hist`` samples and ``_s`` gauges) — the same aligned
monospace style every other CLI surface in this repository uses.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analysis.tables import format_table
from repro.obs.metrics import MetricsSnapshot


def render_report(fold: MetricsSnapshot, title: str = "run report") -> str:
    """The ``--profile`` / ``repro report`` text for one fold."""
    sections: List[str] = [f"== {title} =="]

    if fold.span_histograms:
        ordered = sorted(
            fold.span_histograms.items(), key=lambda kv: kv[1].sum, reverse=True
        )
        self_s = {
            name: max(0.0, hist.sum - fold.span_child_s.get(name, 0.0))
            for name, hist in ordered
        }
        grand_total = sum(self_s.values())
        rows = [
            [
                name,
                hist.count,
                f"{hist.sum:.4f}",
                f"{self_s[name]:.4f}",
                f"{hist.mean * 1e3:.2f}",
                f"{self_s[name] / grand_total if grand_total > 0 else 0.0:.1%}",
                fold.span_errors.get(name, 0),
            ]
            for name, hist in ordered
        ]
        sections.append(
            "spans:\n"
            + format_table(
                ["span", "count", "total s", "self s", "mean ms", "self %", "err"],
                rows,
            )
        )

    if fold.counters:
        rows = [
            [name, stat["count"], _fmt_value(stat["total"])]
            for name, stat in sorted(fold.counters.items())
        ]
        sections.append(
            "counters:\n" + format_table(["counter", "samples", "total"], rows)
        )

    if fold.gauges:
        rows = [
            [name, stat["count"], _fmt_value(stat["last"]),
             _fmt_value(stat["min"]), _fmt_value(stat["max"])]
            for name, stat in sorted(fold.gauges.items())
        ]
        sections.append(
            "gauges:\n"
            + format_table(["gauge", "samples", "last", "min", "max"], rows)
        )

    if fold.gauge_histograms:
        # p50/p99 are bucket estimates, within one bucket ratio (~1.78x).
        rows = [
            [name, hist.count, *(f"{value:.4g}" for value in (
                hist.mean, hist.min, hist.quantile(0.5), hist.quantile(0.99), hist.max))]
            for name, hist in sorted(fold.gauge_histograms.items())
        ]
        sections.append(
            "distributions:\n"
            + format_table(
                ["distribution", "samples", "mean", "min", "p50", "p99", "max"], rows
            )
        )

    if len(sections) == 1:
        sections.append("(no events recorded)")
    return "\n\n".join(sections)


def render_events_report(events: Iterable[dict], title: str = "run report") -> str:
    """Fold raw events (e.g. from :func:`load_events`) and render."""
    fold = MetricsSnapshot()
    for event in events:
        fold.emit(event)
    return render_report(fold, title=title)


def _fmt_value(value: float) -> str:
    if value in (float("inf"), float("-inf")):
        return "-"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3f}"
