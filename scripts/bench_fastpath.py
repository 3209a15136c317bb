#!/usr/bin/env python
"""Benchmark the incremental scheduling path against from-scratch.

Runs the default online scenario (10 DCs, 12 simulated slots, the CLI
``figure`` seeds) twice per trial:

* **fast** — ``PostcardScheduler`` defaults: cached time-expanded arcs,
  direct LP assembly, vectorized lowering;
* **reference** — ``incremental=False`` under
  ``compile_mode("legacy")``: fresh graph, operator-algebra assembly,
  per-coefficient lowering.

Asserts the two are **bit-identical** (final cost, full cost
trajectory) and reports the per-slot LP wall-clock — the obs
``lp.build`` (graph + assembly) and ``lp.solve`` (lowering + optimize)
spans — as the best (minimum) over the trials: scheduler load and other
interference only ever add time, so the minimum is the stablest
estimate of the true cost (same reasoning as ``timeit``).  Writes a
``BENCH_fastpath.json`` record for the benchmark trajectory.

Usage::

    PYTHONPATH=src python scripts/bench_fastpath.py \
        [-o benchmarks/results/BENCH_fastpath.json] [--trials 5] \
        [--min-reduction 30]

Exit status is nonzero if fast and reference results differ, or if the
measured reduction falls below ``--min-reduction`` (pass 0 to make the
timing informational, e.g. on noisy CI runners).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro import Simulation, complete_topology, obs
from repro.core import PostcardScheduler
from repro.lp.compile import compile_mode
from repro.traffic import PaperWorkload

#: The CLI ``figure`` defaults: the acceptance scenario for the fast path.
NUM_DCS = 10
CAPACITY = 100.0
NUM_SLOTS = 12
MAX_DEADLINE = 3
MAX_FILES = 10
TOPOLOGY_SEED = 2012
WORKLOAD_SEED = 3012


def run_once(incremental: bool):
    """One full online simulation; returns (result, span_seconds)."""
    topology = complete_topology(NUM_DCS, capacity=CAPACITY, seed=TOPOLOGY_SEED)
    workload = PaperWorkload(
        topology,
        max_deadline=MAX_DEADLINE,
        max_files=MAX_FILES,
        seed=WORKLOAD_SEED,
    )
    scheduler = PostcardScheduler(
        topology,
        horizon=NUM_SLOTS + MAX_DEADLINE,
        on_infeasible="drop",
        incremental=incremental,
    )
    with obs.collecting() as collector:
        if incremental:
            result = Simulation(scheduler, workload, NUM_SLOTS).run()
        else:
            # The reference also uses the legacy matrix lowering, so the
            # measurement covers the whole before/after delta.
            with compile_mode("legacy"):
                result = Simulation(scheduler, workload, NUM_SLOTS).run()
    spans = {
        name: collector.spans[name].total
        for name in ("lp.build", "lp.solve")
        if name in collector.spans
    }
    spans["total"] = spans.get("lp.build", 0.0) + spans.get("lp.solve", 0.0)
    return result, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default="benchmarks/results/BENCH_fastpath.json",
        help="where to write the JSON record",
    )
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument(
        "--min-reduction",
        type=float,
        default=30.0,
        help="fail if the median build+solve reduction (%%) is below "
        "this; 0 disables the timing gate",
    )
    args = parser.parse_args(argv)

    fast_spans, ref_spans = [], []
    for trial in range(args.trials):
        fast_result, fast = run_once(incremental=True)
        ref_result, ref = run_once(incremental=False)

        if fast_result.final_cost_per_slot != ref_result.final_cost_per_slot:
            print(
                "FAIL: fast path cost "
                f"{fast_result.final_cost_per_slot!r} != reference "
                f"{ref_result.final_cost_per_slot!r}",
                file=sys.stderr,
            )
            return 1
        if not np.array_equal(
            fast_result.cost_trajectory(), ref_result.cost_trajectory()
        ):
            print("FAIL: cost trajectories diverge", file=sys.stderr)
            return 1

        fast_spans.append(fast)
        ref_spans.append(ref)
        print(
            f"trial {trial + 1}/{args.trials}: "
            f"fast {fast['total']:.3f}s ref {ref['total']:.3f}s "
            f"(identical cost {fast_result.final_cost_per_slot:.2f})"
        )

    def best(samples, key):
        return min(s[key] for s in samples)

    fast_best = {k: best(fast_spans, k) for k in ("lp.build", "lp.solve", "total")}
    ref_best = {k: best(ref_spans, k) for k in ("lp.build", "lp.solve", "total")}
    reduction = 100.0 * (1.0 - fast_best["total"] / ref_best["total"])

    record = {
        "benchmark": "fastpath",
        "scenario": {
            "datacenters": NUM_DCS,
            "capacity": CAPACITY,
            "num_slots": NUM_SLOTS,
            "max_deadline": MAX_DEADLINE,
            "max_files": MAX_FILES,
            "topology_seed": TOPOLOGY_SEED,
            "workload_seed": WORKLOAD_SEED,
        },
        "trials": args.trials,
        "identical_results": True,
        "final_cost_per_slot": fast_result.final_cost_per_slot,
        "fast_best_seconds": {
            "build": round(fast_best["lp.build"], 6),
            "solve": round(fast_best["lp.solve"], 6),
            "total": round(fast_best["total"], 6),
        },
        "reference_best_seconds": {
            "build": round(ref_best["lp.build"], 6),
            "solve": round(ref_best["lp.solve"], 6),
            "total": round(ref_best["total"], 6),
        },
        "reduction_percent": round(reduction, 2),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    with open(args.output, "w") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")

    print(
        f"\nbest build+solve: fast {fast_best['total']:.3f}s "
        f"(build {fast_best['lp.build']:.3f} / solve {fast_best['lp.solve']:.3f}) "
        f"vs reference {ref_best['total']:.3f}s "
        f"(build {ref_best['lp.build']:.3f} / solve {ref_best['lp.solve']:.3f})"
    )
    print(f"reduction: {reduction:.1f}%  ->  {args.output}")

    if args.min_reduction > 0 and reduction < args.min_reduction:
        print(
            f"FAIL: reduction {reduction:.1f}% below the "
            f"{args.min_reduction:.0f}% gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
