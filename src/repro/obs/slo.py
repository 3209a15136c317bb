"""SLO monitoring: rolling-window objectives over the broker's vitals.

A service-level objective here is a *budget* on a rolling-window
statistic.  Four ship by default, matching the service's operating
contract (docs/SERVICE.md):

* ``admission_ratio`` — admitted / decided over the window must stay
  at or above the budget (a falling ratio means the network is full or
  the fast lane is mis-placing);
* ``decision_p99_s`` — 99th-percentile per-slot decision latency must
  stay under the tick budget (the daemon falls behind its own slot
  clock otherwise);
* ``checkpoint_p99_s`` — snapshot writes must stay under budget
  (checkpoint-before-ack means a slow disk stalls client responses);
* ``intake_depth`` — queue depth must stay under a fraction of
  ``max_queue`` (sustained depth near the bound means imminent
  backpressure).

:class:`SloMonitor` keeps deques of recent samples; :meth:`evaluate`
computes each objective fresh (a pure read) and, when asked, emits the
state as ``slo.<name>`` gauges with ``ok``/``budget`` attrs plus one
``slo.breaches`` counter per ok->breach transition — the events a
:class:`~repro.obs.metrics.MetricsSnapshot` folds and ``repro watch``
renders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, Optional

from repro.obs import registry as obs


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank q-th percentile, the ``ceil(q% * n)``-th smallest (0.0
    when empty); not the charging convention, which takes a floor index."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[int(max(1, -(-len(ordered) * q // 100))) - 1]


@dataclass
class SloThresholds:
    """The budgets one :class:`SloMonitor` holds its window against."""

    #: Admitted / decided must stay >= this over the window.
    min_admission_ratio: float = 0.95
    #: p99 per-slot decision latency must stay <= this (seconds).
    #: The daemon wires the slot tick in here.
    decision_budget_s: float = 0.25
    #: p99 checkpoint duration must stay <= this (seconds).
    checkpoint_budget_s: float = 1.0
    #: Intake depth must stay <= this many queued submissions.
    max_intake_depth: int = 1024
    #: Watchdog-degraded slots per window must stay <= this (0 = any
    #: degrade is a breach; degrading is a survival move, not routine).
    max_degraded_slots: int = 0


class SloMonitor:
    """Rolling-window SLO evaluation over broker slot samples.

    ``window`` is in *processed slots* — each :meth:`record_slot` call
    pushes one slot's admissions/rejections/decision latency (and the
    post-drain intake depth); checkpoint durations arrive separately at
    their own cadence.
    """

    def __init__(self, thresholds: Optional[SloThresholds] = None,
                 window: int = 64):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.thresholds = thresholds or SloThresholds()
        self.window = window
        self._admitted: Deque[int] = deque(maxlen=window)
        self._rejected: Deque[int] = deque(maxlen=window)
        self._decision_s: Deque[float] = deque(maxlen=window)
        self._checkpoint_s: Deque[float] = deque(maxlen=window)
        self._depth: Deque[int] = deque(maxlen=window)
        self._degraded: Deque[int] = deque(maxlen=window)
        #: Last evaluated ok-state per objective (for breach edges).
        self._ok: Dict[str, bool] = {}
        #: Total ok->breach transitions since start.
        self.breaches = 0

    # -- recording -------------------------------------------------------

    def record_slot(
        self,
        admitted: int,
        rejected: int,
        decision_s: float,
        depth: int,
        degraded: int = 0,
    ) -> None:
        """Fold one processed slot's outcome into the window.

        ``degraded`` is 1 when the solver watchdog finished this slot
        fast-lane-only (or skipped the LP during its backoff window).
        """
        self._admitted.append(admitted)
        self._rejected.append(rejected)
        self._decision_s.append(decision_s)
        self._depth.append(depth)
        self._degraded.append(degraded)

    def record_checkpoint(self, seconds: float) -> None:
        """Fold one snapshot write's duration into the window."""
        self._checkpoint_s.append(seconds)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, emit: bool = False) -> Dict[str, Dict[str, Any]]:
        """Current objective states: ``{name: {value, budget, ok, window}}``.

        A pure read unless ``emit=True``, which additionally publishes
        ``slo.<name>`` gauges (attr ``ok``/``budget``) and bumps the
        ``slo.breaches`` counter on every ok->breach edge.
        """
        t = self.thresholds
        admitted = sum(self._admitted)
        decided = admitted + sum(self._rejected)
        ratio = admitted / decided if decided else 1.0
        decision_p99 = percentile(self._decision_s, 99)
        checkpoint_p99 = percentile(self._checkpoint_s, 99)
        states = {
            "admission_ratio": {
                "value": ratio,
                "budget": t.min_admission_ratio,
                "ok": ratio >= t.min_admission_ratio,
                "window": len(self._admitted),
            },
            "decision_p99_s": {
                "value": decision_p99,
                "budget": t.decision_budget_s,
                "ok": decision_p99 <= t.decision_budget_s,
                "window": len(self._decision_s),
            },
            "checkpoint_p99_s": {
                "value": checkpoint_p99,
                "budget": t.checkpoint_budget_s,
                "ok": checkpoint_p99 <= t.checkpoint_budget_s,
                "window": len(self._checkpoint_s),
            },
            "intake_depth": {
                "value": float(self._depth[-1]) if self._depth else 0.0,
                "budget": float(t.max_intake_depth),
                "ok": (self._depth[-1] if self._depth else 0)
                <= t.max_intake_depth,
                "window": len(self._depth),
            },
            "degraded_slots": {
                "value": float(sum(self._degraded)),
                "budget": float(t.max_degraded_slots),
                "ok": sum(self._degraded) <= t.max_degraded_slots,
                "window": len(self._degraded),
            },
        }
        if emit:
            for name, state in states.items():
                obs.gauge(
                    f"slo.{name}", state["value"],
                    ok=state["ok"], budget=state["budget"],
                )
                was_ok = self._ok.get(name, True)
                if was_ok and not state["ok"]:
                    self.breaches += 1
                    obs.counter("slo.breaches", objective=name)
                self._ok[name] = state["ok"]
            obs.gauge(
                "slo.ok",
                1.0 if all(s["ok"] for s in states.values()) else 0.0,
            )
        return states

    def __repr__(self) -> str:
        return (
            f"SloMonitor(window={self.window}, slots={len(self._decision_s)}, "
            f"breaches={self.breaches})"
        )
