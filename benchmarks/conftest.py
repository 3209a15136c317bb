"""Shared infrastructure for the figure-regeneration benchmarks.

Every benchmark regenerates one of the paper's figures (or an ablation)
at a configurable scale:

* ``REPRO_BENCH_SCALE=smoke`` (default) — laptop scale: fewer
  datacenters, slots and runs, so the whole suite finishes in minutes.
  The qualitative claims (who wins, direction of deltas) already hold.
* ``REPRO_BENCH_SCALE=paper`` — the full Sec. VII parameters: 20
  datacenters, 100 slots, up to 20 files per slot, 10 runs.

Each benchmark prints a paper-style table (scheduler, mean cost per
slot, 95% CI) and appends a JSON record to
``benchmarks/results/<scale>.jsonl`` for the EXPERIMENTS.md log.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from typing import Optional

import pytest

# Ablation A2 runs the test tree's simplex oracle (tests/lp_simplex.py).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro import obs
from repro.baselines import DirectScheduler
from repro.core import PostcardScheduler
from repro.flowbased import FlowBasedScheduler
from repro.sim.runner import ExperimentSetting, SchedulerComparison, run_comparison

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The fold of the most recent run_figure call; report() copies its
#: key counters and span totals into the JSONL record so BENCH_*.json
#: tracks a perf trajectory (iterations, LP size, build vs.
#: solve split), not just wall time.
_last_fold: Optional[obs.MetricsSnapshot] = None

#: The counters worth tracking across PRs (sums over the whole figure).
_TRACKED_COUNTERS = (
    "lp.highs.iterations",
    "lp.rows",
    "lp.cols",
    "lp.nonzeros",
    "timeexp.nodes",
    "timeexp.arcs",
    "scheduler.rejected",
    "scheduler.replans",
    "heuristic.admitted",
    "heuristic.rejected",
    "hybrid.escalations",
    "hybrid.fast_slots",
)

#: The spans that answer "where did the time go".  lp.build covers the
#: whole model-construction side (graph + assembly); lp.solve covers
#: the solver side (lowering + optimize, with lp.compile nested).
_TRACKED_SPANS = (
    "timeexp.build",
    "lp.build",
    "lp.compile",
    "lp.solve",
    "scheduler.build_model",
    "scheduler.fastlane",
    "sim.scheduler",
    "sim.audit",
)


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    if scale not in ("smoke", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be smoke|paper, got {scale!r}")
    return scale


def scaled_setting(name: str, capacity: float, max_deadline: int) -> ExperimentSetting:
    """One of the paper's four settings at the active scale.

    Capacities and file sizes are the paper's own (the contention ratio
    between a file and a link is what drives the crossover); the smoke
    scale only shrinks the datacenter count, the slot count and the
    files-per-slot range.

    Deadlines are fixed at ``max_deadline`` for every file.  The paper
    parameterizes each setting only by ``max_k T_k``; drawing
    ``T_k ~ U[1, max]`` would make the largest files (100 GB, deadline
    1 slot) undeliverable under store-and-forward semantics in the
    30 GB/slot settings, so the fixed reading is the one under which
    all schedulers face a fully feasible workload.
    """
    if bench_scale() == "paper":
        return ExperimentSetting(
            name, capacity=capacity, max_deadline=max_deadline
        )
    return ExperimentSetting(
        name,
        capacity=capacity,
        max_deadline=max_deadline,
        num_datacenters=10,
        num_slots=12,
        max_files=10,
    )


def bench_runs() -> int:
    return 10 if bench_scale() == "paper" else 3


def standard_factories():
    """Postcard, both flow-based variants, and the naive baseline.

    The paper's own baseline algorithm is the two-phase decomposition
    (Sec. II-B); the exact flow LP is a strictly stronger baseline we
    add for fairness.
    """
    return {
        "postcard": lambda t, h: PostcardScheduler(t, h, on_infeasible="drop"),
        "flow-based": lambda t, h: FlowBasedScheduler(t, h, on_infeasible="drop"),
        "flow-2phase": lambda t, h: FlowBasedScheduler(
            t, h, variant="two_phase", on_infeasible="drop"
        ),
        "direct": lambda t, h: DirectScheduler(t, h, on_infeasible="drop"),
    }


def run_figure(setting: ExperimentSetting, factories=None) -> SchedulerComparison:
    global _last_fold
    with obs.collecting() as fold:
        comparison = run_comparison(
            setting,
            factories or standard_factories(),
            runs=bench_runs(),
            base_seed=2012,
        )
    _last_fold = fold
    return comparison


def obs_record(fold: Optional[obs.MetricsSnapshot]) -> dict:
    """The observability block appended to each figure's JSONL record."""
    if fold is None:
        return {}
    counters = {
        name: fold.counter_total(name)
        for name in _TRACKED_COUNTERS
        if name in fold.counters
    }
    span_seconds = {
        name: round(fold.span_histograms[name].sum, 6)
        for name in _TRACKED_SPANS
        if name in fold.span_histograms
    }
    return {"counters": counters, "span_seconds": span_seconds}


def report(figure: str, comparison: SchedulerComparison, paper_claim: str) -> None:
    """Print the regenerated figure and log it for EXPERIMENTS.md."""
    print()
    print(f"=== {figure} ({bench_scale()} scale) — {comparison.setting.describe()}")
    print(f"paper claim: {paper_claim}")
    print(comparison.to_table())

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "figure": figure,
        "scale": bench_scale(),
        "setting": comparison.setting.describe(),
        "runs": comparison.runs,
        "means": {
            name: comparison.interval(name).mean for name in comparison.costs
        },
        "half_widths": {
            name: comparison.interval(name).half_width for name in comparison.costs
        },
        "rejected": {
            name: sum(r.total_rejected for r in results)
            for name, results in comparison.results.items()
        },
    }
    obs_block = obs_record(_last_fold)
    if obs_block:
        record["obs"] = obs_block
    with open(RESULTS_DIR / f"{bench_scale()}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")


@pytest.fixture(scope="session")
def scale():
    return bench_scale()
