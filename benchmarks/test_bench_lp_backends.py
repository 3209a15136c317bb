"""Ablation A2 — the LP solver against its oracle: cross-check and relative speed.

The pure-Python simplex (``tests/lp_simplex.py``, the test tree's oracle)
must agree with HiGHS on a real (small) Postcard instance; HiGHS should
be the faster solver on anything non-trivial, which is why it is the one
``src/`` ships.
"""

import pytest

from repro.core.formulation import build_postcard_model
from repro.core.state import NetworkState
from repro.lp import solve_lp
from repro.net.generators import complete_topology
from repro.traffic import TransferRequest
from tests.lp_simplex import SOLVERS, solve_simplex


def _instance():
    topo = complete_topology(4, capacity=25.0, seed=17)
    state = NetworkState(topo, horizon=20)
    requests = [
        TransferRequest(0, 1, 20.0, 3, release_slot=0),
        TransferRequest(1, 2, 15.0, 3, release_slot=0),
        TransferRequest(2, 3, 30.0, 4, release_slot=0),
    ]
    return state, requests


@pytest.mark.parametrize("solve", SOLVERS)
def test_bench_backend(benchmark, solve):
    def run():
        state, requests = _instance()
        return solve(build_postcard_model(state, requests).model).objective

    objective = benchmark(run)
    # Cross-check against the other solver once.
    state, requests = _instance()
    other = solve_simplex if solve is solve_lp else solve_lp
    reference = other(build_postcard_model(state, requests).model)
    assert objective == pytest.approx(reference.objective, rel=1e-6, abs=1e-6)
