"""Golden pins for the object-model time-expanded flow LPs.

Soft deadlines, the budget relaxation, bulk throughput, multicast, the
replanning scheduler and the recovery layer's salvage replan each build
a Sec. V program (per-file arc flows, balance rows, capacity rows, the
charge epigraph) with their own supplies and objective.
``tests/data/flow_lp_pins.json`` holds the sha256 of every
``CompiledProblem`` each scenario hands HiGHS, recorded from the commit
before those builders shared one skeleton (run ``python -m
tests.test_flow_lp_pins`` from the repo root with that commit's ``src/``
on ``PYTHONPATH`` to re-record).  A moved row, a reordered column or a
``-0.0`` right-hand side that became ``0.0`` changes a hash.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core import PostcardScheduler, ReplanningPostcardScheduler
from repro.core.soft import solve_soft_deadline
from repro.extensions import (
    maximize_bulk_throughput,
    maximize_transfers_under_budget,
    solve_multicast,
)
from repro.lp.backends import highs
from repro.lp.compile import compile_model
from repro.net.generators import complete_topology
from repro.sim import FaultModel, Simulation
from repro.traffic import PaperWorkload, TraceWorkload, TransferRequest

from tests.test_fastlane_pins import _flavour

PINS = Path(__file__).parent / "data" / "flow_lp_pins.json"
SEEDS = (1, 2, 3)


def _digest(problem) -> str:
    """sha256 over every array and flag HiGHS is handed."""
    h = hashlib.sha256()

    def put(array, dtype):
        array = np.ascontiguousarray(np.asarray(array, dtype=dtype))
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())

    put(problem.c, np.float64)
    h.update(np.float64(problem.c0).tobytes())
    for matrix in (problem.a_ub, problem.a_eq):
        put(matrix.indptr, np.int64)
        put(matrix.indices, np.int64)
        put(matrix.data, np.float64)
        h.update(repr(matrix.shape).encode())
    put(problem.b_ub, np.float64)
    put(problem.b_eq, np.float64)
    put(problem.bounds, np.float64)
    h.update(repr(bool(problem.maximize)).encode())
    h.update(repr(list(problem.row_map)).encode())
    return h.hexdigest()


@contextmanager
def _recording(prefix=""):
    """Collect the digest of every problem solved inside the block
    (only those whose model name starts with ``prefix``)."""
    seen = []
    original = highs.HighsBackend.solve

    def solve(self, model, **options):
        problem = compile_model(model)
        if problem.name.startswith(prefix):
            seen.append(_digest(problem))
        return original(self, problem, **options)

    highs.HighsBackend.solve = solve
    try:
        yield seen
    finally:
        highs.HighsBackend.solve = original


def _requests(seed, count, release_slot, deadline=(2, 4), size=(4.0, 30.0)):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        src, dst = rng.sample(range(5), 2)
        out.append(TransferRequest(
            src, dst, round(rng.uniform(*size), 3),
            rng.randint(*deadline), release_slot=release_slot,
        ))
    return out


def _busy_state(seed):
    """A 5-DC mesh after two Postcard slots: committed cells and paid
    peaks, so the charge rows carry ``B_ij(n)`` and ``X_ij(t-1)``."""
    topology = complete_topology(5, capacity=40.0, seed=seed)
    scheduler = PostcardScheduler(topology, 30, on_infeasible="drop")
    for slot in range(2):
        scheduler.on_slot(slot, _requests(seed * 10 + slot, 4, slot))
    return scheduler.state


def _soft(seed):
    state = _busy_state(seed)
    with _recording() as seen:
        solve_soft_deadline(
            state, _requests(seed, 6, 2, deadline=(1, 3), size=(10.0, 60.0)),
            extension=2, lateness_penalty=3.0,
        )
    return seen


def _budget(seed):
    state = _busy_state(seed)
    with _recording() as seen:
        maximize_transfers_under_budget(
            state, _requests(seed, 5, 2),
            budget_per_slot=state.current_cost_per_slot() + 15.0 * seed,
        )
    return seen


def _bulk(seed):
    state = _busy_state(seed)
    requests = _requests(seed, 4, 2, deadline=(3, 5))
    weights = {r.request_id: 1.0 + i for i, r in enumerate(requests)}
    with _recording() as seen:
        maximize_bulk_throughput(state, requests, weights=weights)
    return seen


def _multicast(seed):
    state = _busy_state(seed)
    rng = random.Random(seed)
    source, *destinations = rng.sample(range(5), 4)
    with _recording() as seen:
        solve_multicast(state, source, destinations, 25.0 + seed, 3,
                        release_slot=2)
    return seen


def _replan(seed):
    """Five slots of ``postcard-replan``; slot 2 sheds (a file no path
    can carry in time, and more than the mesh can take at once)."""
    topology = complete_topology(5, capacity=40.0, seed=seed)
    scheduler = ReplanningPostcardScheduler(topology, 30, on_infeasible="drop")
    with _recording() as seen:
        for slot in range(5):
            batch = _requests(seed * 10 + slot, 3, slot)
            if slot == 2:
                batch.append(TransferRequest(0, 1, 500.0, 1, release_slot=2))
                batch += [TransferRequest(1, 2, 70.0, 2, release_slot=2)
                          for _ in range(3)]
            scheduler.on_slot(slot, batch)
    assert scheduler.state.rejected
    return seen


def _recovery(seed):
    """Surprise outages under a Postcard run: the recovery layer's
    salvage replans (``solve_multisource_plan`` with all three hooks)."""
    topology = complete_topology(5, capacity=40.0, seed=seed)
    scheduler = PostcardScheduler(topology, horizon=20, on_infeasible="drop")
    scheduler.state.fault_model = FaultModel.random(
        topology, num_slots=8, outage_probability=0.5, mean_duration=2.0,
        seed=seed, announced=False,
    )
    workload = PaperWorkload(topology, max_deadline=4, max_files=4,
                             seed=seed + 100)
    with _recording(prefix="recover[") as seen:
        Simulation(scheduler, workload, num_slots=8).run()
    return seen


BUILDERS = {
    "soft": _soft, "budget": _budget, "bulk": _bulk,
    "multicast": _multicast, "replan": _replan, "recovery": _recovery,
}
SCENARIOS = {
    f"{name}_seed{seed}": (lambda run=run, seed=seed: run(seed))
    for name, run in BUILDERS.items() for seed in SEEDS
}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_builder_hands_highs_the_recorded_problems(pins, name):
    if pins["flavour"]["plain_float_sum"] != _flavour()["plain_float_sum"]:
        pytest.skip("pins were recorded under a different float sum()")
    assert SCENARIOS[name]() == pins["scenarios"][name]


def test_pins_cover_what_they_claim(pins):
    """Every scenario solved something; the stream scenarios solved
    many problems (replan sheds, recovery salvages more than once)."""
    scenarios = pins["scenarios"]
    assert sorted(scenarios) == sorted(SCENARIOS)
    assert all(scenarios.values())
    for seed in SEEDS:
        assert len(scenarios[f"replan_seed{seed}"]) > 5
        assert len(scenarios[f"recovery_seed{seed}"]) >= 1
        # The budget search re-solves the exact LP after its relaxation.
        assert len(scenarios[f"budget_seed{seed}"]) >= 2


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
