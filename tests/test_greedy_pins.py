"""Golden pins for the greedy store-and-forward baseline.

``tests/data/greedy_pins.json`` was recorded from the commit before
``GreedyStoreAndForwardScheduler`` was folded onto the fast lane's
window-table engine, when it still carried its own path search,
residual/headroom closures, marginal-cost function and emitter (run
``python -m tests.test_greedy_pins`` from the repo root with that
commit's ``src/`` on ``PYTHONPATH`` to re-record).  Each scenario drives
a seeded multi-slot stream and pins the bill, the decision vector and a
hash of every ledger cell and charged peak — bit for bit, because the
first-strictly-cheaper tie rule turns a one-ulp cost drift into a
different path.  ``raise_mid_batch`` alone was re-recorded when a slot
began to commit once: its raising batch now leaves no cell behind.
``static_10dc_20slots`` and ``static_8dc_seed5`` to ``seed7`` were
re-recorded when a file whose deadline allows fewer hops than every
tabled path began to get the cheapest path within its hop bound: each
decision that moved is such a file, refused before and admitted now.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import GreedyStoreAndForwardScheduler
from repro.errors import InfeasibleError
from repro.net.generators import complete_topology
from repro.traffic import PaperWorkload

from tests.test_fastlane_pins import _books, _flavour, _outage

PINS = Path(__file__).parent / "data" / "greedy_pins.json"


def _run(seed, datacenters=8, slots=12, capacity=60.0, max_files=12,
         on_infeasible="drop", prepare=None):
    """Drive greedy over a seeded paper workload; books after the run.

    In raise mode the run stops at the first slot with an infeasible
    file, and the books show that the slot committed nothing.
    """
    topology = complete_topology(datacenters, capacity=capacity, seed=seed)
    scheduler = GreedyStoreAndForwardScheduler(
        topology, 200, on_infeasible=on_infeasible
    )
    if prepare is not None:
        prepare(scheduler.state, topology)
    workload = PaperWorkload(
        topology, max_deadline=6, max_files=max_files, seed=seed,
        deadline_distribution="uniform",
    )
    everyone, raised = [], None
    for slot in range(slots):
        requests = workload.requests_at(slot)
        everyone += requests
        try:
            scheduler.on_slot(slot, requests)
        except InfeasibleError:
            raised = {"slot": slot, "batch": len(requests)}
            break
    state = scheduler.state
    return dict(
        _books(state, everyone),
        cost=repr(state.current_cost_per_slot()),
        rejected=[everyone.index(r) for r in state.rejected],
        raised=raised,
    )


SCENARIOS = {f"static_8dc_seed{seed}": (lambda seed=seed: _run(seed))
             for seed in range(1, 9)}
SCENARIOS.update({
    "static_10dc_20slots": lambda: _run(
        21, datacenters=10, slots=20, capacity=80.0, max_files=16
    ),
    "announced_outage": lambda: _run(22, prepare=_outage),
    "raise_mid_batch": lambda: _run(32, capacity=50.0, on_infeasible="raise"),
})


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_greedy_reproduces_the_recorded_books(pins, name):
    if pins["flavour"]["plain_float_sum"] != _flavour()["plain_float_sum"]:
        pytest.skip("pins were recorded under a different float sum()")
    assert SCENARIOS[name]() == pins["scenarios"][name]


def test_pins_cover_what_they_claim(pins):
    """The recorded streams really reject, relay and stop mid-batch."""
    scenarios = pins["scenarios"]
    assert sum(1 for s in scenarios.values() if s["rejected"]) >= 4
    assert any(float(s["storage_used"]) > 0 for s in scenarios.values())
    for name, books in scenarios.items():
        if name != "raise_mid_batch":
            assert books["raised"] is None, name
            assert max(books["decisions"]) > 0, name
    stopped = scenarios["raise_mid_batch"]
    assert stopped["raised"]["slot"] > 0 and not stopped["rejected"]
    # None of the raising batch committed: a slot lands whole or not at all.
    batch = stopped["decisions"][-stopped["raised"]["batch"]:]
    assert len(batch) >= 2 and max(batch) == -1


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(
        {
            "flavour": _flavour(),
            "scenarios": {name: run() for name, run in sorted(SCENARIOS.items())},
        },
        indent=1,
    ) + "\n")
    print(f"recorded {len(SCENARIOS)} scenarios into {PINS}")
