"""Unit tests for workload generators."""

import pytest

from repro.errors import WorkloadError
from repro.traffic import (
    DiurnalWorkload,
    PaperWorkload,
    PoissonWorkload,
    TraceWorkload,
    TransferRequest,
)


def fingerprint(workload, slots):
    """Slot-by-slot releases, reduced to comparable tuples."""
    return [
        [
            (r.source, r.destination, round(r.size_gb, 9), r.deadline_slots)
            for r in workload.requests_at(slot)
        ]
        for slot in range(slots)
    ]


class TestPaperWorkload:
    def test_parameters_respected(self, small_complete):
        wl = PaperWorkload(small_complete, max_deadline=3, seed=1)
        for slot in range(20):
            requests = wl.requests_at(slot)
            assert 1 <= len(requests) <= 20
            for r in requests:
                assert 10.0 <= r.size_gb <= 100.0
                assert r.deadline_slots == 3  # fixed distribution
                assert r.source != r.destination
                assert r.release_slot == slot

    def test_uniform_deadlines(self, small_complete):
        wl = PaperWorkload(
            small_complete, max_deadline=8, seed=1, deadline_distribution="uniform"
        )
        deadlines = {
            r.deadline_slots for slot in range(30) for r in wl.requests_at(slot)
        }
        assert deadlines <= set(range(1, 9))
        assert len(deadlines) > 1

    def test_deterministic_per_slot(self, small_complete):
        wl = PaperWorkload(small_complete, max_deadline=3, seed=5)
        a = wl.requests_at(7)
        b = wl.requests_at(7)
        assert [(r.source, r.destination, r.size_gb) for r in a] == [
            (r.source, r.destination, r.size_gb) for r in b
        ]

    def test_different_seeds_differ(self, small_complete):
        a = PaperWorkload(small_complete, max_deadline=3, seed=1).all_requests(10)
        b = PaperWorkload(small_complete, max_deadline=3, seed=2).all_requests(10)
        assert [(r.source, r.size_gb) for r in a] != [(r.source, r.size_gb) for r in b]

    def test_validation(self, small_complete):
        with pytest.raises(WorkloadError):
            PaperWorkload(small_complete, max_deadline=0)
        with pytest.raises(WorkloadError):
            PaperWorkload(small_complete, max_deadline=3, min_files=0)
        with pytest.raises(WorkloadError):
            PaperWorkload(small_complete, max_deadline=3, min_files=5, max_files=2)
        with pytest.raises(WorkloadError):
            PaperWorkload(small_complete, max_deadline=3, min_size=0.0)
        with pytest.raises(WorkloadError):
            PaperWorkload(small_complete, max_deadline=3, deadline_distribution="zipf")


class TestDiurnalWorkload:
    def test_intensity_oscillates(self, small_complete):
        wl = DiurnalWorkload(
            small_complete, max_deadline=3, peak_files=20, trough_files=2,
            slots_per_day=24, seed=0,
        )
        intensities = [wl.intensity(s) for s in range(24)]
        assert max(intensities) == pytest.approx(20.0, abs=0.5)
        assert min(intensities) == pytest.approx(2.0, abs=0.5)

    def test_phase_shift(self, small_complete):
        a = DiurnalWorkload(small_complete, 3, slots_per_day=24, seed=0)
        b = DiurnalWorkload(small_complete, 3, slots_per_day=24, phase_slots=12, seed=0)
        # Half a day apart: where one peaks the other troughs.
        assert a.intensity(6) == pytest.approx(b.intensity(18), abs=1e-6)

    def test_validation(self, small_complete):
        with pytest.raises(WorkloadError):
            DiurnalWorkload(small_complete, 3, peak_files=1, trough_files=5)
        with pytest.raises(WorkloadError):
            DiurnalWorkload(small_complete, 3, slots_per_day=1)
        with pytest.raises(WorkloadError):
            DiurnalWorkload(small_complete, 0)


class TestPoissonWorkload:
    def test_mean_rate(self, small_complete):
        wl = PoissonWorkload(small_complete, max_deadline=3, rate=4.0, seed=3)
        counts = [len(wl.requests_at(s)) for s in range(200)]
        assert 3.0 < sum(counts) / len(counts) < 5.0

    def test_validation(self, small_complete):
        with pytest.raises(WorkloadError):
            PoissonWorkload(small_complete, max_deadline=3, rate=0.0)


class TestSeededDeterminism:
    def test_diurnal_identical_streams(self, small_complete):
        a = DiurnalWorkload(small_complete, 3, slots_per_day=24, seed=11)
        b = DiurnalWorkload(small_complete, 3, slots_per_day=24, seed=11)
        assert fingerprint(a, 48) == fingerprint(b, 48)

    def test_poisson_identical_streams(self, small_complete):
        a = PoissonWorkload(small_complete, 3, rate=4.0, seed=11)
        b = PoissonWorkload(small_complete, 3, rate=4.0, seed=11)
        assert fingerprint(a, 48) == fingerprint(b, 48)

    def test_slot_access_order_is_immaterial(self, small_complete):
        wl = DiurnalWorkload(small_complete, 3, slots_per_day=24, seed=2)
        backwards = [
            [(r.source, r.size_gb) for r in wl.requests_at(s)]
            for s in reversed(range(10))
        ]
        forwards = [
            [(r.source, r.size_gb) for r in wl.requests_at(s)]
            for s in range(10)
        ]
        assert backwards == list(reversed(forwards))


class TestTraceWorkload:
    def test_replay(self):
        reqs = [
            TransferRequest(0, 1, 1.0, 2, release_slot=0),
            TransferRequest(1, 2, 2.0, 2, release_slot=0),
            TransferRequest(2, 3, 3.0, 2, release_slot=4),
        ]
        wl = TraceWorkload(reqs)
        assert len(wl.requests_at(0)) == 2
        assert wl.requests_at(1) == []
        assert wl.requests_at(4)[0].size_gb == 3.0

    def test_all_requests(self):
        reqs = [TransferRequest(0, 1, 1.0, 2, release_slot=s) for s in range(5)]
        wl = TraceWorkload(reqs)
        assert len(wl.all_requests(3)) == 3
