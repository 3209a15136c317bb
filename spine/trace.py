"""Per-layer attribution from outside the program.

A traced round wraps the public entry points named in ``SPANS`` or
``COUNTS`` with ``setattr`` on the class, or on the module attribute
*where the caller looks it up* (``build_postcard_model`` is bound into
``repro.core.scheduler``; ``os.fsync`` is reached through the ``os``
name inside ``repro.service.wal``).  Spans are kept in memory as
(name, start, end, parent) columns and written out when the round ends.
Hot leaves only count, and they count in a round of their own: 75
counted calls per request inside ``plan_slot`` would otherwise add a
fifth to the self-time being measured there.  Nothing under ``src/``
knows it is being watched — spans inside the program are a later issue.
"""

from __future__ import annotations

import importlib
import json
from bisect import bisect_right
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: metric stem -> the ``module:attribute`` paths it wraps.  A stem with
#: several paths (``service.intake``) sums them.
SPANS: Dict[str, Tuple[str, ...]] = {
    "service.protocol.decode_line": ("repro.service.protocol:decode_line",),
    "service.protocol.validate_submit": ("repro.service.protocol:validate_submit",),
    "service.protocol.encode": ("repro.service.protocol:encode",),
    "service.slotloop.submit": ("repro.service.slotloop:TransferBroker.submit",),
    "service.slotloop.process_slot": (
        "repro.service.slotloop:TransferBroker.process_slot",
    ),
    "service.slotloop.checkpoint": (
        "repro.service.slotloop:TransferBroker.checkpoint",
    ),
    "service.intake": (
        "repro.service.intake:IntakeQueue.offer",
        "repro.service.intake:IntakeQueue.find",
        "repro.service.intake:IntakeQueue.drain",
    ),
    "service.store.append_wal": ("repro.service.store:SnapshotStore.append_wal",),
    "service.wal.fsync": ("repro.service.wal:os.fsync",),
    "service.store.save": ("repro.service.store:SnapshotStore.save",),
    "core.checkpoint.snapshot_to_json": ("repro.core.checkpoint:snapshot_to_json",),
    "core.checkpoint.save_snapshot": ("repro.service.store:save_snapshot",),
    "obs.metrics.emit": ("repro.obs.metrics:MetricsSnapshot.emit",),
    "heuristic.hybrid.on_slot": ("repro.heuristic.hybrid:HybridScheduler.on_slot",),
    "heuristic.fastlane.plan_slot": (
        "repro.heuristic.fastlane:FastLaneScheduler.plan_slot",
    ),
    "heuristic.fastlane.commit_plan": (
        "repro.heuristic.fastlane:FastLaneScheduler.commit_plan",
    ),
    "heuristic.paths.candidates": (
        "repro.heuristic.paths:CandidatePathIndex.candidates",
    ),
    "core.state.commit": ("repro.core.state:NetworkState.commit",),
    "core.schedule.validate": ("repro.core.schedule:TransferSchedule.validate",),
    "core.state.start_new_period": (
        "repro.core.state:NetworkState.start_new_period",
    ),
    "core.scheduler.plan_slot": ("repro.core.scheduler:PostcardScheduler.plan_slot",),
    "core.scheduler.commit_plan": (
        "repro.core.scheduler:PostcardScheduler.commit_plan",
    ),
    "core.formulation.build_postcard_model": (
        "repro.core.scheduler:build_postcard_model",
    ),
    "timeexp.cache.build": ("repro.timeexp.cache:GraphCache.build",),
    "core.formulation.solve": ("repro.core.formulation:PostcardModel.solve",),
    "lp.compile.compile_model": ("repro.lp.backends.highs:compile_model",),
    "lp.backends.highs.solve": ("repro.lp.backends.highs:HighsBackend.solve",),
    "forecast.provider": (
        "repro.forecast.provider:ForecastProvider.begin_slot",
        "repro.forecast.provider:ForecastProvider.note_placements",
        "repro.forecast.provider:ForecastProvider.observe_slot",
    ),
}

#: Hot leaves: a span per call would cost more than the call.  Counted
#: in a separate round from the spans (see the module docstring).
COUNTS: Dict[str, Tuple[str, ...]] = {
    "heuristic.tracker": (
        "repro.heuristic.tracker:UtilizationTracker.residual",
        "repro.heuristic.tracker:UtilizationTracker.headroom",
        "repro.heuristic.tracker:UtilizationTracker.forecast_residual",
        "repro.heuristic.tracker:UtilizationTracker.forecast_headroom",
    ),
    "core.state.residual_capacity": (
        "repro.core.state:NetworkState.residual_capacity",
    ),
    "charging.ledger.volume": ("repro.charging.ledger:TrafficLedger.volume",),
    "charging.ledger.record": ("repro.charging.ledger:TrafficLedger.record",),
    "forecast.provider.reservation": (
        "repro.forecast.provider:ForecastProvider.reservation",
        # A class-level alias of the same function; the LP lane calls it.
        "repro.forecast.provider:ForecastProvider.predicted_volume",
    ),
    "net.schedule": (
        "repro.net.schedule:LinkSchedule.is_up",
        "repro.net.schedule:LinkSchedule.up_in_range",
        "repro.net.schedule:LinkSchedule.fully_up_in_range",
    ),
}

#: Spans of the LP lane: their call counts must be 0 where the workload
#: is meant to bypass the LP.
LP_SPANS = (
    "core.scheduler.plan_slot", "core.scheduler.commit_plan",
    "core.formulation.build_postcard_model", "timeexp.cache.build",
    "core.formulation.solve", "lp.compile.compile_model",
    "lp.backends.highs.solve",
)

#: Spans and counters of the forecast/window layers (0 where bypassed).
FORECAST_SPANS = ("forecast.provider",)
FORECAST_COUNTS = ("forecast.provider.reservation", "net.schedule")


class _ModuleProxy:
    """Stands in for a module inside one importer, overriding attributes.

    ``repro.service.wal`` reaches ``os.fsync`` through its own ``os``
    name; swapping that name for a proxy times the WAL's fsyncs and
    leaves ``os.fsync`` as the checkpoint code sees it untouched.
    """

    def __init__(self, module: ModuleType):
        self._module = module

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def _patch(path: str, make: Callable, stem: str) -> None:
    """Replace ``"pkg.mod:A.b"`` by ``make(original, stem)``."""
    module_name, _, chain = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = chain.split(".")
    for name in parents:
        inner = getattr(owner, name)
        if isinstance(inner, ModuleType):
            inner = _ModuleProxy(inner)
            setattr(owner, name, inner)
        owner = inner
    setattr(owner, attr, make(getattr(owner, attr), stem))


class Tracer:
    """Span columns + call counters for one traced round."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.counts: Dict[str, int] = {stem: 0 for stem in COUNTS}
        #: (rows, nonzeros) of every compiled LP, read off the span's result.
        self.lp_shapes: List[Tuple[int, int]] = []
        self._stack: List[int] = []
        self._mark: Tuple[int, Dict[str, int], int] = (0, dict(self.counts), 0)

    # -- installation ------------------------------------------------------

    def install(self, mode: str) -> None:
        """Wrap the ``"spans"`` or the ``"counts"`` entry points.

        Nothing is ever unwrapped: a traced process exits after its round.
        """
        table, make = {
            "spans": (SPANS, self._span_wrapper),
            "counts": (COUNTS, self._count_wrapper),
        }[mode]
        for stem, paths in table.items():
            for path in paths:
                _patch(path, make, stem)

    def _span_wrapper(self, fn: Callable, stem: str) -> Callable:
        if stem not in self.names:
            self.names.append(stem)
        nid = self.names.index(stem)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        on_result = self._note_lp_shape if stem == "lp.compile.compile_model" else None

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_wrapper(self, fn: Callable, stem: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[stem] += 1
            return fn(*args, **kwargs)

        return counted

    def _note_lp_shape(self, problem: Any) -> None:
        self.lp_shapes.append((
            problem.num_inequalities + problem.num_equalities,
            int(problem.a_ub.nnz + problem.a_eq.nnz),
        ))

    # -- reading -----------------------------------------------------------

    def mark(self) -> None:
        """Warm-up ends here: readers below see only what comes after."""
        self._mark = (len(self.start), dict(self.counts), len(self.lp_shapes))

    def columns(self) -> Dict[str, Any]:
        """The span columns since :meth:`mark`, parents re-indexed."""
        since = self._mark[0]
        return {
            "names": self.names,
            "name_id": self.name_id[since:],
            "start": self.start[since:],
            "end": self.end[since:],
            "parent": [p - since if p >= since else -1 for p in self.parent[since:]],
        }

    def counts_since_mark(self) -> Dict[str, int]:
        before = self._mark[1]
        return {stem: count - before[stem] for stem, count in self.counts.items()}

    def lp_shapes_since_mark(self) -> List[Tuple[int, int]]:
        return self.lp_shapes[self._mark[2]:]


def self_times(columns: Dict[str, Any]) -> List[float]:
    """A span's self-time: its duration minus what its child spans cover."""
    start, end, parent = columns["start"], columns["end"], columns["parent"]
    own = [e - s for s, e in zip(start, end)]
    for index, above in enumerate(parent):
        if above >= 0:
            own[above] -= end[index] - start[index]
    return own


def aggregate(columns: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per name: calls, total self seconds; plus the top-level total."""
    own = self_times(columns)
    names = columns["names"]
    table = {name: {"calls": 0, "self_s": 0.0} for name in names}
    top_level = 0.0
    for index, nid in enumerate(columns["name_id"]):
        row = table[names[nid]]
        row["calls"] += 1
        row["self_s"] += own[index]
        if columns["parent"][index] < 0:
            top_level += columns["end"][index] - columns["start"][index]
    table["_top_level"] = {"calls": 0, "self_s": top_level}
    return table


def write_trace(
    path: Path, columns: Dict[str, Any], slot_starts: Sequence[float]
) -> None:
    """Write the spans (with the slot each started in) to ``path``."""
    origin = slot_starts[0] if slot_starts else 0.0
    body = dict(columns)
    body["slot"] = [bisect_right(slot_starts, s) - 1 for s in columns["start"]]
    body["start"] = [round(s - origin, 7) for s in columns["start"]]
    body["end"] = [round(e - origin, 7) for e in columns["end"]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body, separators=(",", ":")))
