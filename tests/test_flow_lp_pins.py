"""Golden pins for the object-model time-expanded flow LPs.

Soft deadlines, the budget relaxation, bulk throughput, multicast, the
replanning scheduler and the recovery layer's salvage replan each build
a Sec. V program (per-file arc flows, balance rows, capacity rows, the
charge epigraph) with their own supplies and objective.
``tests/data/flow_lp_pins.json`` holds, per ``CompiledProblem`` each
scenario hands HiGHS, three facts (run ``python -m
tests.test_flow_lp_pins`` from the repo root to re-record):

* ``scenarios``: the sha256 of the problem as stored — its sparse
  structure and ``row_map`` included;
* ``arrays``: the sha256 of the program itself — ``c``, ``c0``,
  ``bounds``, ``b_ub``, ``b_eq`` and the dense ``a_ub`` / ``a_eq``,
  signed zeros folded to ``0.0`` — which two assemblers writing the
  same LP share, whatever their sparse layout, row bookkeeping or the
  sign their arithmetic leaves on a zero;
* ``objectives``: the optimum HiGHS reports, held to 1e-9 relative.

A moved row or a reordered column changes both hashes; a ``-0.0``
right-hand side that became ``0.0`` changes only the first.
"""

from __future__ import annotations

import hashlib
import json
import math
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
from repro.sim.recovery import RecoveryManager
from repro.traffic import PaperWorkload, TraceWorkload, TransferRequest

from tests.lp_reference import as_scipy
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


def _arrays_digest(problem) -> str:
    """sha256 over the program alone: objective, bounds, right-hand
    sides and the dense constraint matrices, no sparse layout, no
    ``row_map`` and no sign on a zero."""
    h = hashlib.sha256()
    for array in (
        problem.c, [problem.c0], problem.bounds, problem.b_ub, problem.b_eq,
        as_scipy(problem.a_ub).toarray(), as_scipy(problem.a_eq).toarray(),
    ):
        array = np.ascontiguousarray(np.asarray(array, dtype=np.float64) + 0.0)
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


@contextmanager
def _recording(within=None):
    """Collect ``(digest, arrays digest, objective)`` of every problem
    solved inside the block; with ``within`` (a ``(class, method name)``
    pair) only of those solved inside that method."""
    seen = []
    original = highs.HighsBackend.solve
    active = [within is None]

    def solve(self, model, **options):
        problem = compile_model(model)
        solution = original(self, problem, **options)
        if active[0]:
            seen.append((_digest(problem), _arrays_digest(problem),
                         float(solution.objective)))
        return solution

    patches = [(highs.HighsBackend, "solve", solve)]
    if within is not None:
        owner, name = within
        method = getattr(owner, name)

        def scoped(*args, **kwargs):
            active[0] = True
            try:
                return method(*args, **kwargs)
            finally:
                active[0] = False

        patches.append((owner, name, scoped))
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, patch in patches:
        setattr(owner, name, patch)
    try:
        yield seen
    finally:
        for owner, name, method in saved:
            setattr(owner, name, method)


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
    salvage replans (``RecoveryManager._replan``)."""
    topology = complete_topology(5, capacity=40.0, seed=seed)
    scheduler = PostcardScheduler(topology, horizon=20, on_infeasible="drop")
    scheduler.state.fault_model = FaultModel.random(
        topology, num_slots=8, outage_probability=0.5, mean_duration=2.0,
        seed=seed, announced=False,
    )
    workload = PaperWorkload(topology, max_deadline=4, max_files=4,
                             seed=seed + 100)
    with _recording(within=(RecoveryManager, "_replan")) as seen:
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


def _record(run):
    """A scenario's facets: the digests, the arrays digests and the
    objectives of its solves, in solve order."""
    digests, arrays, objectives = map(list, zip(*run()))
    return digests, arrays, objectives


def _same_objective(got, pinned):
    if math.isnan(pinned):
        return math.isnan(got)
    return math.isclose(got, pinned, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_builder_hands_highs_the_recorded_problems(pins, name):
    if pins["flavour"]["plain_float_sum"] != _flavour()["plain_float_sum"]:
        pytest.skip("pins were recorded under a different float sum()")
    digests, arrays, objectives = _record(SCENARIOS[name])
    assert arrays == pins["arrays"][name]
    assert digests == pins["scenarios"][name]
    pinned = pins["objectives"][name]
    assert len(objectives) == len(pinned)
    assert all(map(_same_objective, objectives, pinned)), (objectives, pinned)


def test_pins_cover_what_they_claim(pins):
    """Every scenario solved something; the stream scenarios solved
    many problems (replan sheds, recovery salvages more than once)."""
    scenarios = pins["scenarios"]
    for facet in ("scenarios", "arrays", "objectives"):
        assert sorted(pins[facet]) == sorted(SCENARIOS)
        assert all(
            len(pins[facet][name]) == len(scenarios[name]) for name in SCENARIOS
        )
    assert all(scenarios.values())
    for seed in SEEDS:
        assert len(scenarios[f"replan_seed{seed}"]) > 5
        assert len(scenarios[f"recovery_seed{seed}"]) >= 1
        # The budget search re-solves the exact LP after its relaxation.
        assert len(scenarios[f"budget_seed{seed}"]) >= 2


if __name__ == "__main__":
    records = {name: _record(run) for name, run in sorted(SCENARIOS.items())}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(
        {
            "flavour": _flavour(),
            "scenarios": {name: r[0] for name, r in records.items()},
            "arrays": {name: r[1] for name, r in records.items()},
            "objectives": {name: r[2] for name, r in records.items()},
        },
        indent=1,
    ) + "\n")
    print(f"recorded {len(SCENARIOS)} scenarios into {PINS}")
