"""``repro watch``: a live terminal dashboard over a running daemon.

Polls the ``metrics`` protocol op on an interval and renders the
response as a plain-text dashboard: broker vitals, SLO objectives with
their budgets and OK/BREACH states, latency histograms (p50/p90/p99),
and the lane/admission counter set.  ANSI clear-screen between frames
(suppressible) keeps it feeling live on a terminal while staying pipe-
safe in scripts and tests.

The renderer is a pure function of one ``metrics`` response dict, so
tests (and anything else) can feed it captured snapshots.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional

from repro.analysis import format_table
from repro.errors import ServiceError
from repro.service.loadgen import Connection

#: ANSI: clear screen + home.
CLEAR = "\x1b[2J\x1b[H"

#: Histograms worth a dashboard row, in display order; anything else
#: present in the snapshot follows alphabetically.
_PREFERRED_HISTOGRAMS = (
    "service.slot",
    "service.decision_s",
    "scheduler.solve",
    "hybrid.fastpath",
    "hybrid.escalate",
    "service.checkpoint",
)

#: Counters surfaced on the dashboard when present.
_COUNTER_ROWS = (
    "service.submitted",
    "service.admitted",
    "service.rejected",
    "service.backpressure",
    "hybrid.fast_slots",
    "hybrid.escalations",
    "service.checkpoints",
    "slo.breaches",
)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.2f}ms"


def render_dashboard(response: Dict[str, Any]) -> str:
    """One dashboard frame for a ``metrics`` op response dict."""
    stats = response.get("stats", {})
    slo = response.get("slo", {})
    snapshot = response.get("snapshot", {})
    wall = response.get("wall", {})
    lines: List[str] = []

    lines.append(
        f"postcard broker — {stats.get('endpoint', '?')} "
        f"scheduler={stats.get('scheduler', '?')} "
        f"slot={stats.get('next_slot', '?')} "
        f"queue={stats.get('queue_depth', '?')}/{stats.get('max_queue', '?')}"
    )
    lines.append(
        f"submitted={stats.get('submitted', 0)} "
        f"admitted={stats.get('admitted', 0)} "
        f"rejected={stats.get('rejected', 0)} "
        f"backpressured={stats.get('backpressured', 0)} "
        f"cost/slot={stats.get('cost_per_slot', 0.0)} "
        f"draining={stats.get('draining', False)}"
    )
    if wall:
        lines.append(
            f"wall: slot {wall.get('next_slot', '?')} ~ "
            f"{time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(wall.get('next_slot_wall_ts', 0.0)))} "
            f"({wall.get('slot_wall_seconds', '?')}s per slot)"
        )
    forecast = stats.get("forecast")
    if forecast:
        lines.append(
            f"forecast: predictor={forecast.get('predictor', '?')} "
            f"{'warm' if forecast.get('active') else 'warming'} "
            f"mape={forecast.get('mape', 0.0):.2f} "
            f"trust={forecast.get('trust', 0.0):.2f} "
            f"shifted={forecast.get('shifted_gb', 0.0):.1f}GB "
            f"guard-trips={forecast.get('guard_trips', 0)}"
        )

    if slo:
        lines.append("")
        lines.append("SLO objectives:")
        rows = []
        for name, state in slo.items():
            rows.append([
                name,
                f"{state['value']:.4f}",
                f"{state['budget']:.4f}",
                state.get("window", 0),
                "ok" if state.get("ok") else "BREACH",
            ])
        lines.append(format_table(
            ["objective", "value", "budget", "window", "state"], rows
        ))

    histograms = snapshot.get("histograms", {})
    if histograms:
        ordered = [n for n in _PREFERRED_HISTOGRAMS if n in histograms]
        ordered += sorted(n for n in histograms if n not in ordered)
        rows = []
        for name in ordered:
            stat = histograms[name]
            if not stat.get("count"):
                continue
            rows.append([
                name,
                stat["count"],
                _ms(stat["p50"]),
                _ms(stat["p90"]),
                _ms(stat["p99"]),
                _ms(stat["max"]),
            ])
        if rows:
            lines.append("")
            lines.append("latency (p50/p90/p99/max):")
            lines.append(format_table(
                ["stage", "count", "p50", "p90", "p99", "max"], rows
            ))

    counters = snapshot.get("counters", {})
    rows = [
        [name, counters[name]["total"]]
        for name in _COUNTER_ROWS
        if name in counters
    ]
    if rows:
        lines.append("")
        lines.append("counters:")
        lines.append(format_table(["counter", "total"], rows))

    gauges = snapshot.get("gauges", {})
    active = gauges.get("service.connections.active")
    if active is not None:
        lines.append(
            f"connections: active={active['last']:.0f} "
            f"(peak {active['max']:.0f})"
        )
    return "\n".join(lines) + "\n"


async def run_watch(
    *,
    host: str = "127.0.0.1",
    port: int = 7411,
    socket_path: Optional[str] = None,
    interval_s: float = 1.0,
    iterations: int = 0,
    clear: bool = True,
    write: Callable[[str], Any] = print,
) -> int:
    """Poll the daemon at ``host``/``port``/``socket_path`` for
    ``metrics`` and render dashboard frames.

    ``iterations=0`` runs until the connection drops (daemon drained)
    or the caller interrupts; otherwise exactly that many frames are
    rendered — what tests and one-shot ``--once`` invocations use.
    Returns the number of frames rendered.
    """
    conn = await Connection.open(host, port, socket_path)
    frames = 0
    try:
        while True:
            response = await conn.call({"op": "metrics"})
            if not response.get("ok"):
                raise ServiceError(
                    f"metrics op refused: {response.get('message', response)}"
                )
            frame = render_dashboard(response)
            write((CLEAR if clear else "") + frame)
            frames += 1
            if iterations and frames >= iterations:
                return frames
            await asyncio.sleep(interval_s)
    except ServiceError:
        if frames == 0:
            raise
        return frames
    finally:
        await conn.close()
