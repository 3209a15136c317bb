"""Ablation A2 — LP backend cross-check and relative speed.

The pure-Python simplex must agree with HiGHS on a real (small)
Postcard instance; HiGHS should be the faster backend on anything
non-trivial, which is why it is the default.
"""

import pytest

from repro.core import PostcardScheduler
from repro.core.formulation import build_postcard_model
from repro.core.state import NetworkState
from repro.net.generators import complete_topology
from repro.traffic import TransferRequest


def _instance():
    topo = complete_topology(4, capacity=25.0, seed=17)
    state = NetworkState(topo, horizon=20)
    requests = [
        TransferRequest(0, 1, 20.0, 3, release_slot=0),
        TransferRequest(1, 2, 15.0, 3, release_slot=0),
        TransferRequest(2, 3, 30.0, 4, release_slot=0),
    ]
    return state, requests


@pytest.mark.parametrize("backend", ["highs", "simplex"])
def test_bench_backend(benchmark, backend):
    def solve():
        state, requests = _instance()
        built = build_postcard_model(state, requests)
        _, solution = built.solve(backend=backend)
        return solution.objective

    objective = benchmark(solve)
    # Cross-check against the other backend once.
    state, requests = _instance()
    other = "simplex" if backend == "highs" else "highs"
    _, reference = build_postcard_model(state, requests).solve(backend=other)
    assert objective == pytest.approx(reference.objective, rel=1e-6, abs=1e-6)
