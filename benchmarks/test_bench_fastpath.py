"""Fast-path ablation — what does incremental assembly buy?

Runs Postcard twice on identical workloads: once with the production
fast path (cached time-expanded arcs, direct assembly — the
scheduler defaults) and once from scratch every slot
(``postcard-scratch`` in the registry).  The two must land on
*identical* costs — the fast path is an implementation change, not a
policy change — while the tracked ``lp.build``/``lp.solve`` spans in
the JSONL record show where the time went.

The committed ``results/BENCH_fastpath.json`` (written by
``scripts/bench_fastpath.py``) holds the reference timing record for
the default scenario; this benchmark tracks the same claim inside the
figure-regeneration harness.
"""

import pytest
from conftest import bench_runs, report, scaled_setting

from repro.registry import scheduler_factory
from repro.sim.runner import run_comparison


def _factories():
    return {
        "postcard": scheduler_factory("postcard"),
        "postcard-scratch": scheduler_factory("postcard-scratch"),
    }


def _run(setting):
    return run_comparison(setting, _factories(), runs=bench_runs(), base_seed=2012)


def test_bench_fastpath_identical_costs(benchmark):
    setting = scaled_setting("fastpath", capacity=100.0, max_deadline=3)
    comparison = benchmark.pedantic(_run, args=(setting,), rounds=1, iterations=1)
    report(
        "Fast path (incremental vs. from-scratch)",
        comparison,
        "identical schedules, lower build+solve time",
    )
    fast = comparison.results["postcard"]
    scratch = comparison.results["postcard-scratch"]
    # Bit-identical run for run, not merely equal on average.
    for fast_run, scratch_run in zip(fast, scratch):
        assert fast_run.final_cost_per_slot == scratch_run.final_cost_per_slot
        assert list(fast_run.cost_trajectory()) == list(
            scratch_run.cost_trajectory()
        )
