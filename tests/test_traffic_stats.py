"""Unit tests for offered-load statistics."""

import pytest

from repro.errors import WorkloadError
from repro.net.generators import complete_topology
from repro.traffic import PaperWorkload, TraceWorkload, TransferRequest
from repro.traffic.stats import collect_stats


def test_validation():
    with pytest.raises(WorkloadError):
        collect_stats(TraceWorkload([]), 0)


def test_empty_trace():
    stats = collect_stats(TraceWorkload([]), 5)
    assert stats.num_files == 0
    assert stats.total_gb == 0.0
    assert stats.offered_gb_per_slot == 0.0


def test_known_trace():
    requests = [
        TransferRequest(0, 1, 10.0, 2, release_slot=0),
        TransferRequest(0, 1, 30.0, 3, release_slot=1),
        TransferRequest(1, 2, 20.0, 2, release_slot=1),
    ]
    stats = collect_stats(TraceWorkload(requests), 2)
    assert stats.num_files == 3
    assert stats.total_gb == pytest.approx(60.0)
    assert stats.offered_gb_per_slot == pytest.approx(30.0)
    # Required rate: 5 + 10 + 10 over 2 slots.
    assert stats.required_rate_per_slot == pytest.approx(12.5)
    assert stats.deadline_histogram == {2: 2, 3: 1}
    assert stats.hottest_pairs[0] == ((0, 1), 40.0)


def test_describe_readable():
    requests = [TransferRequest(0, 1, 10.0, 2, release_slot=0)]
    text = collect_stats(TraceWorkload(requests), 1).describe()
    assert "1 files" in text and "10 GB" in text and "T=2" in text


def test_paper_workload_statistics_in_range():
    topo = complete_topology(8, capacity=30.0, seed=1)
    workload = PaperWorkload(topo, max_deadline=3, seed=2)
    stats = collect_stats(workload, 20)
    # U[1,20] files of U[10,100] GB: sanity bands around the means.
    assert 5 < stats.num_files / 20 < 16
    assert 30 < stats.total_gb / stats.num_files < 80
    assert set(stats.deadline_histogram) == {3}
