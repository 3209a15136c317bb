"""Ablation A16 — hard versus priced deadlines under overload.

The paper's model rejects whatever cannot meet its deadline.  The
soft-deadline variant delivers everything, a little late, for a price.
This bench drives both through an overload sweep (growing per-slot
file counts at tight capacity) and reports acceptance, lateness and
cost side by side.
"""

import pytest
from conftest import bench_runs

from repro.analysis import format_table, mean_ci
from repro.core import build_postcard_model, solve_soft_deadline
from repro.core.state import NetworkState
from repro.core.scheduler import shed_until_feasible
from repro.net.generators import complete_topology
from repro.traffic import PaperWorkload

LOADS = [4, 8, 12]


def _one_instance(load, seed):
    topo = complete_topology(5, capacity=20.0, seed=seed)
    workload = PaperWorkload(
        topo, max_deadline=2, min_files=load, max_files=load,
        min_size=20.0, max_size=60.0, seed=seed + 21,
    )
    requests = workload.requests_at(0)

    # Hard deadlines: shed until feasible, count the casualties.
    hard_state = NetworkState(topo, horizon=30)

    def solve(accepted):
        built = build_postcard_model(hard_state, accepted)
        schedule, solution = built.solve()
        solve.cost = solution.objective
        return schedule

    solve.cost = 0.0
    plan = shed_until_feasible(solve, requests)
    hard_rejected = len(requests) - len(plan.accepted)
    hard_cost = solve.cost if plan.accepted else 0.0

    # Soft deadlines: everyone is delivered, lateness is priced.
    soft_state = NetworkState(topo, horizon=30)
    result = solve_soft_deadline(
        soft_state,
        [r.with_release(0) for r in requests],
        extension=3,
        lateness_penalty=2.0,
    )
    return {
        "hard_rejected": hard_rejected,
        "hard_cost": hard_cost,
        "soft_lateness": result.total_lateness,
        "soft_cost": result.solution.objective,
    }


def test_bench_soft_deadlines(benchmark):
    def run():
        out = {}
        for load in LOADS:
            out[load] = [
                _one_instance(load, 9500 + i) for i in range(bench_runs())
            ]
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for load in LOADS:
        rs = results[load]
        rows.append(
            [
                f"{load} files",
                sum(r["hard_rejected"] for r in rs),
                mean_ci([r["hard_cost"] for r in rs]).mean,
                mean_ci([r["soft_lateness"] for r in rs]).mean,
                mean_ci([r["soft_cost"] for r in rs]).mean,
            ]
        )
    print()
    print("=== Ablation A16: overload sweep — hard rejections vs priced lateness")
    print(
        format_table(
            ["load", "hard: rejected", "hard: cost", "soft: GB-slots late", "soft: cost"],
            rows,
        )
    )

    # The soft model never rejects, and lateness grows with overload.
    lateness = [mean_ci([r["soft_lateness"] for r in results[l]]).mean for l in LOADS]
    assert lateness[-1] >= lateness[0] - 1e-9