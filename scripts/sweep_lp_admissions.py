#!/usr/bin/env python
"""Stream-level admissions of the hybrid's path-pruned LP lane vs the full one.

Widen-before-shed guarantees the pruned lane refuses nothing the full
model would admit *from the same state*.  It cannot guarantee that over
a stream: the two lanes commit different (equally myopic) placements,
so they enter later slots with different headroom and either one can
meet a request the other cannot fit.  This script measures that on the
overloaded shape of ``tests/test_fastlane_pins.py``'s
``hybrid_escalations`` scenario (8 DCs, 10 slots x 12 files of 5-40 GB,
deadline 1-6 slots, capacity 40) and reports, per seed and in total,
refusals, escalations, widened slots and how many of those still shed.

Usage::

    PYTHONPATH=src python scripts/sweep_lp_admissions.py [--seeds 40]
"""

from __future__ import annotations

import argparse
import random

from repro.heuristic import HybridScheduler
from repro.net.generators import complete_topology
from repro.traffic.spec import TransferRequest

DATACENTERS, HORIZON, SLOTS, PER_SLOT = 8, 200, 10, 12


class _FullLane(HybridScheduler):
    """The lane before pruning: every file on the paper's full subgraph."""

    def arc_sets(self, requests, plan):
        return None


def run(scheduler_class, seed):
    topology = complete_topology(DATACENTERS, capacity=40.0, seed=seed)
    scheduler = scheduler_class(topology, HORIZON, on_infeasible="drop")
    rng = random.Random(seed)
    total = shed_after_widen = 0
    for slot in range(SLOTS):
        requests = []
        for _ in range(PER_SLOT):
            src = rng.randrange(DATACENTERS)
            dst = (src + rng.randrange(1, DATACENTERS)) % DATACENTERS
            size, deadline = round(rng.uniform(5.0, 40.0), 6), rng.randint(1, 6)
            requests.append(
                TransferRequest(src, dst, size, deadline, release_slot=slot)
            )
        total += len(requests)
        widened, refused = scheduler.lp_widened, len(scheduler.state.rejected)
        scheduler.on_slot(slot, requests)
        if scheduler.lp_widened > widened and len(scheduler.state.rejected) > refused:
            shed_after_widen += 1
    return {
        "refused": total - len(scheduler.state.completions),
        "escalations": scheduler.escalations,
        "widened": scheduler.lp_widened,
        "shed_after_widen": shed_after_widen,
        "bill": scheduler.state.current_cost_per_slot(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args(argv)
    keys = ("refused", "escalations", "widened", "shed_after_widen")
    totals = {name: dict.fromkeys(keys, 0) for name in ("full", "pruned")}
    fewer = more = 0
    print("seed  full: refused bill      pruned: refused widened shed bill")
    for seed in range(1, args.seeds + 1):
        full, pruned = run(_FullLane, seed), run(HybridScheduler, seed)
        for name, row in (("full", full), ("pruned", pruned)):
            for key in keys:
                totals[name][key] += row[key]
        fewer += pruned["refused"] < full["refused"]
        more += pruned["refused"] > full["refused"]
        print(
            f"{seed:4d}  {full['refused']:13d} {full['bill']:9.1f}"
            f"  {pruned['refused']:15d} {pruned['widened']:7d}"
            f" {pruned['shed_after_widen']:4d} {pruned['bill']:9.1f}"
        )
    print(f"full   {totals['full']}")
    print(f"pruned {totals['pruned']}")
    print(
        f"pruned refuses fewer on {fewer} seeds, more on {more}, "
        f"the same on {args.seeds - fewer - more}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
