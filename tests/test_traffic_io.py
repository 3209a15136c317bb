"""Unit tests for request trace serialization."""

import pytest

from repro.errors import WorkloadError
from repro.traffic import TransferRequest
from repro.traffic.io import (
    load_requests,
    requests_from_json,
    requests_to_json,
    save_requests,
)


def sample_requests():
    return [
        TransferRequest(0, 1, 10.0, 2, release_slot=0),
        TransferRequest(2, 3, 55.5, 4, release_slot=3),
    ]


def test_request_round_trip():
    original = sample_requests()
    restored = requests_from_json(requests_to_json(original))
    assert len(restored) == 2
    for a, b in zip(original, restored):
        assert (a.source, a.destination, a.size_gb, a.deadline_slots, a.release_slot) == (
            b.source, b.destination, b.size_gb, b.deadline_slots, b.release_slot
        )
    # Fresh ids are assigned on load.
    assert restored[0].request_id != original[0].request_id


def test_request_file_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    save_requests(sample_requests(), path)
    restored = load_requests(path)
    assert len(restored) == 2


def test_request_errors():
    with pytest.raises(WorkloadError, match="JSON"):
        requests_from_json("{nope")
    with pytest.raises(WorkloadError, match="not a postcard trace"):
        requests_from_json('{"kind": "grocery-list"}')
    with pytest.raises(WorkloadError, match="version"):
        requests_from_json('{"kind": "postcard-trace", "version": 99}')
    with pytest.raises(WorkloadError, match="missing field"):
        requests_from_json(
            '{"kind": "postcard-trace", "version": 1, "requests": [{"source": 0}]}'
        )


def test_trace_replays_identically(tmp_path):
    """A saved trace replayed through a scheduler matches the original."""
    from repro.core import PostcardScheduler
    from repro.net.generators import complete_topology
    from repro.sim import Simulation
    from repro.traffic import PaperWorkload, TraceWorkload

    topo = complete_topology(4, capacity=40.0, seed=1)
    workload = PaperWorkload(topo, max_deadline=3, max_files=3, seed=5)
    requests = workload.all_requests(3)
    path = tmp_path / "day.json"
    save_requests(requests, path)

    def run(reqs):
        scheduler = PostcardScheduler(topo, horizon=20, on_infeasible="drop")
        result = Simulation(scheduler, TraceWorkload(reqs), 3).run()
        return result.final_cost_per_slot

    assert run(requests) == pytest.approx(run(load_requests(path)))
