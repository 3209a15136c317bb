"""Terminal-friendly data sketches: sparklines and utilization rows.

The benchmark harness and CLI are plain-text by design (no plotting
dependencies); these helpers make per-slot series legible anyway.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-character-per-sample sketch of a non-negative series.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    >>> sparkline([5, 5, 5])
    '▁▁▁'
    """
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1) + 1e-9)
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def utilization_rows(
    samples_by_link: Dict[Tuple[int, int], Sequence[float]],
    capacity_by_link: Dict[Tuple[int, int], float],
    top: int = 10,
) -> str:
    """Per-link utilization sparklines, busiest links first.

    ``samples_by_link`` maps (src, dst) to per-slot volumes;
    utilization is volume / capacity per slot.  Links with infinite
    capacity are skipped (always 0% utilized by definition).
    """
    rows = []
    for key, samples in samples_by_link.items():
        capacity = capacity_by_link.get(key, float("inf"))
        if capacity == float("inf") or capacity <= 0:
            continue
        peak = max(samples, default=0.0) / capacity
        rows.append((peak, key, samples, capacity))
    rows.sort(reverse=True)
    lines = []
    for peak, (src, dst), samples, capacity in rows[:top]:
        util = [v / capacity for v in samples]
        lines.append(
            f"({src:>2},{dst:>2})  {sparkline(util)}  peak {peak:5.0%}"
        )
    return "\n".join(lines)


def cost_trajectory_sketch(trajectory: Sequence[float], width: int = 60) -> str:
    """A downsampled sparkline of the running cost-per-slot series."""
    values = list(trajectory)
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    if not values:
        return "(no data)"
    return f"{sparkline(values)}  [{min(values):.0f} .. {max(values):.0f}]"
