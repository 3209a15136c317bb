"""Golden pins for the flow-based LPs (Sec. II-B's baseline).

The exact flow LP (``build_flow_model``), both phases of the two-phase
decomposition (max concurrent flow over paid headroom, then min-cost
multicommodity flow for the remainder) and every restricted master of
column generation each hand HiGHS one ``CompiledProblem`` per solve.
``tests/data/flowbased_lp_pins.json`` holds the sha256 of each, with
the digest of :mod:`tests.test_flow_lp_pins`, plus two-phase's
``lambda`` and column generation's iteration count, column count and
chosen paths: a pricing dual that changed sign moves those.  Recorded
from the commit before these builders wrote arrays directly (run
``python -m tests.test_flowbased_lp_pins`` from the repo root with that
commit's ``src/`` on ``PYTHONPATH`` to re-record).
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import PostcardScheduler
from repro.flowbased.colgen import solve_flow_column_generation
from repro.flowbased.model import build_flow_model
from repro.flowbased.two_phase import solve_two_phase
from repro.lp.backends import highs
from repro.lp.compile import compile_model
from repro.net.generators import complete_topology
from repro.traffic import TransferRequest

from tests.test_fastlane_pins import _flavour
from tests.test_flow_lp_pins import SEEDS, _busy_state, _digest, _requests

PINS = Path(__file__).parent / "data" / "flowbased_lp_pins.json"


@contextmanager
def _recording():
    """Collect the digest of every problem solved inside the block; the
    backend still gets what it was handed (column generation prices
    with its duals)."""
    seen = []
    original = highs.HighsBackend.solve

    def solve(self, model, **options):
        seen.append(_digest(compile_model(model)))
        return original(self, model, **options)

    highs.HighsBackend.solve = solve
    try:
        yield seen
    finally:
        highs.HighsBackend.solve = original


def _exact(seed):
    state = _busy_state(seed)
    with _recording() as seen:
        build_flow_model(state, _requests(seed, 4, 2, deadline=(3, 5))).solve()
    return {"problems": seen}


def _paid_state(seed):
    """A 5-DC mesh whose slot 0 paid a peak on every link and committed
    nothing later: phase 1 has headroom to fill."""
    topology = complete_topology(5, capacity=40.0, seed=seed)
    scheduler = PostcardScheduler(topology, 30, on_infeasible="drop")
    rng = random.Random(seed)
    scheduler.on_slot(0, [
        TransferRequest(a, b, round(rng.uniform(2.0, 8.0), 3), 1, release_slot=0)
        for a in range(5) for b in range(5) if a != b
    ])
    return scheduler.state


def _two_phase(seed):
    state = _paid_state(seed)
    with _recording() as seen:
        _, lam, cost = solve_two_phase(
            state, _requests(seed, 4, 2, deadline=(3, 5), size=(20.0, 60.0))
        )
    return {"problems": seen, "lambda": lam.hex(), "phase2_cost": cost.hex()}


def _colgen(seed):
    state = _busy_state(seed)
    requests = _requests(seed, 6, 2, deadline=(2, 3), size=(30.0, 70.0))
    with _recording() as seen:
        result = solve_flow_column_generation(state, requests)
    return {
        "problems": seen,
        "iterations": result.iterations,
        "columns_generated": result.columns_generated,
        # By position in the batch: request ids count up across tests.
        "paths": [
            [[list(path), rate.hex()] for path, rate in result.paths.get(r.request_id, [])]
            for r in requests
        ],
        "objective": result.objective.hex(),
    }


BUILDERS = {"exact": _exact, "two_phase": _two_phase, "colgen": _colgen}
SCENARIOS = {
    f"{name}_seed{seed}": (lambda run=run, seed=seed: run(seed))
    for name, run in BUILDERS.items() for seed in SEEDS
}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flowbased_builder_hands_highs_the_recorded_problems(pins, name):
    if pins["flavour"]["plain_float_sum"] != _flavour()["plain_float_sum"]:
        pytest.skip("pins were recorded under a different float sum()")
    assert SCENARIOS[name]() == pins["scenarios"][name]


def test_flowbased_pins_cover_what_they_claim(pins):
    """Two-phase served part of the demand free and ran both phases; column generation priced at least one
    column in on every seed, so its masters read duals."""
    scenarios = pins["scenarios"]
    assert sorted(scenarios) == sorted(SCENARIOS)
    for seed in SEEDS:
        assert len(scenarios[f"exact_seed{seed}"]["problems"]) == 1
        two_phase = scenarios[f"two_phase_seed{seed}"]
        assert 0.0 < float.fromhex(two_phase["lambda"]) < 1.0
        assert len(two_phase["problems"]) == 2
        colgen = scenarios[f"colgen_seed{seed}"]
        assert colgen["iterations"] >= 2
        assert len(colgen["problems"]) == colgen["iterations"]


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
