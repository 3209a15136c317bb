"""The four workloads and the seeded generator that feeds them.

Nothing here imports ``repro``: the program under test receives only
the NDJSON lines and the link-window file written below, so no change
under ``src/`` can alter the load.  README.md records why each
workload exists and which layers it is expected to move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

DATACENTERS = 10

#: ``ServiceConfig`` fields every workload sets; everything not named
#: here or in ``Workload.config`` stays at the default ``repro serve``
#: runs with (hybrid scheduler, telemetry on, checkpoint_every=5).
COMMON_CONFIG = {
    "datacenters": DATACENTERS,
    "capacity": 100.0,
    "max_deadline": 8,
    "tick_seconds": 0.0,
}

TICK_LINE = b'{"op":"tick"}\n'


@dataclass(frozen=True)
class Windows:
    """Periodic availability windows on a share of the links."""

    link_share: float = 0.3
    period: int = 8
    #: Dark for 2 slots in 8, and the shortest deadline below is 4: a
    #: request whose every candidate path is dark for its whole window is
    #: rejected by the fast lane, and the hybrid then hands the *whole*
    #: 500-request batch to the LP (one slot: 17 s, 600 MB).  With up=5
    #: and deadlines from 3 that happened on 1 seed in 20.
    up: int = 6
    over_slots: int = 512


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: int
    size_gb: Tuple[float, float]
    deadline: Tuple[int, int]  # inclusive
    warm_slots: int
    timed_slots: int
    #: Slots per calibrated interval (each <= ~250 ms of work).
    interval_slots: int = 1
    config: Dict[str, Any] = field(default_factory=dict)
    windows: Optional[Windows] = None
    #: Meant to escalate to the LP (every other workload must bypass it).
    escalates: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fastlane_bulk",
            why="1000 small requests/slot stay far below the escalation "
                "threshold: fast lane, protocol and telemetry do all the work",
            batch=1000, size_gb=(0.05, 0.25), deadline=(2, 8),
            warm_slots=2, timed_slots=18,
        ),
        Workload(
            name="lp_pressure",
            why="40 paper-scale files/slot push ~90% of slots over the "
                "threshold: graph cache, assembly, compile and HiGHS dominate",
            batch=40, size_gb=(10.0, 60.0), deadline=(2, 6),
            warm_slots=2, timed_slots=22, escalates=True,
        ),
        Workload(
            name="durable_trickle",
            why="8 requests/slot with WAL fsync, snapshot compaction and "
                "billing rollovers: per-slot fixed cost and ledger reads dominate",
            batch=8, size_gb=(1.0, 6.0), deadline=(2, 8),
            warm_slots=8, timed_slots=320, interval_slots=10,
            config={"wal": True, "period_slots": 64},
        ),
        Workload(
            name="windowed_forecast",
            why="500 small requests/slot over link windows with forecasting "
                "on: the fast lane's window re-ranking and preference passes",
            batch=500, size_gb=(0.05, 0.25), deadline=(4, 8),
            warm_slots=8, timed_slots=26,
            config={"forecast": True, "forecast_period": 8},
            windows=Windows(),
        ),
    )
}

#: ``--smoke``: enough slots to touch every layer, few enough for a test.
SMOKE_TIMED_SLOTS = {
    "fastlane_bulk": 3, "lp_pressure": 3,
    "durable_trickle": 10, "windowed_forecast": 3,
}


def slot_counts(workload: Workload, smoke: bool) -> Tuple[int, int]:
    """``(warm, timed)`` slots of one round at the chosen scale."""
    if smoke:
        return min(workload.warm_slots, 2), SMOKE_TIMED_SLOTS[workload.name]
    return workload.warm_slots, workload.timed_slots


def generate(workload: Workload, seed: int, slots: int) -> List[List[Dict[str, Any]]]:
    """``slots`` batches of submit messages; the same seed gives the same load."""
    rng = np.random.default_rng(seed)
    total = slots * workload.batch
    source = rng.integers(0, DATACENTERS, total)
    destination = (source + rng.integers(1, DATACENTERS, total)) % DATACENTERS
    size = rng.uniform(*workload.size_gb, total)
    deadline = rng.integers(workload.deadline[0], workload.deadline[1] + 1, total)
    messages = [
        {
            "op": "submit",
            "id": f"r{n:06d}",
            "source": int(source[n]),
            "destination": int(destination[n]),
            "size_gb": round(float(size[n]), 6),
            "deadline_slots": int(deadline[n]),
        }
        for n in range(total)
    ]
    return [
        messages[s * workload.batch:(s + 1) * workload.batch]
        for s in range(slots)
    ]


def encode_slot(batch: List[Dict[str, Any]]) -> bytes:
    """One slot's wire buffer: its submit lines, then the tick."""
    lines = [
        json.dumps(message, separators=(",", ":")).encode() + b"\n"
        for message in batch
    ]
    return b"".join(lines) + TICK_LINE


def write_window_file(windows: Windows, seed: int, path: Path) -> None:
    """Write the link windows in ``LinkSchedule``'s JSON file format."""
    rng = np.random.default_rng([seed, 1])
    links = [
        (src, dst)
        for src in range(DATACENTERS)
        for dst in range(DATACENTERS)
        if src != dst
    ]
    chosen = rng.choice(
        len(links), size=round(windows.link_share * len(links)), replace=False
    )
    payload = {"windows": [], "scheduled_links": []}
    for index in sorted(int(i) for i in chosen):
        src, dst = links[index]
        phase = int(rng.integers(0, windows.period))
        for start in range(phase - windows.period, windows.over_slots, windows.period):
            lo, hi = max(start, 0), min(start + windows.up, windows.over_slots)
            if lo < hi:
                payload["windows"].append(
                    {"src": src, "dst": dst, "start_slot": lo, "end_slot": hi}
                )
    path.write_text(json.dumps(payload, indent=1) + "\n")
