"""Unit tests for link-failure injection."""

import pytest

from repro.errors import InfeasibleError, SimulationError
from repro.baselines import DirectScheduler, GreedyStoreAndForwardScheduler
from repro.core import PostcardScheduler
from repro.net.generators import complete_topology, fig1_topology, line_topology
from repro.sim import FaultModel, Outage, Simulation
from repro.traffic import PaperWorkload, TransferRequest


class TestOutage:
    def test_validation(self):
        with pytest.raises(SimulationError):
            Outage(0, 1, 5, 5)
        with pytest.raises(SimulationError):
            Outage(0, 1, -1, 2)

    def test_covers(self):
        outage = Outage(0, 1, 2, 4)
        assert not outage.covers(1)
        assert outage.covers(2)
        assert outage.covers(3)
        assert not outage.covers(4)


class TestFaultModel:
    def test_is_down(self):
        fm = FaultModel([Outage(0, 1, 2, 4)])
        assert fm.is_down(0, 1, 3)
        assert not fm.is_down(0, 1, 4)
        assert not fm.is_down(1, 0, 3)  # direction matters

    def test_add_and_downtime(self):
        fm = FaultModel()
        fm.add(Outage(0, 1, 0, 2))
        fm.add(Outage(0, 1, 5, 6))
        assert fm.downtime_slots(0, 1) == {0, 1, 5}

    def test_random_deterministic(self):
        topo = complete_topology(5, capacity=10.0, seed=0)
        a = FaultModel.random(topo, num_slots=10, outage_probability=0.5, seed=3)
        b = FaultModel.random(topo, num_slots=10, outage_probability=0.5, seed=3)
        assert [(o.src, o.dst, o.start_slot) for o in a.outages] == [
            (o.src, o.dst, o.start_slot) for o in b.outages
        ]
        assert a.outages  # 0.5 over 20 links: virtually certain

    def test_random_validation(self):
        topo = complete_topology(3, capacity=10.0, seed=0)
        with pytest.raises(SimulationError):
            FaultModel.random(topo, 10, outage_probability=1.5)
        with pytest.raises(SimulationError):
            FaultModel.random(topo, 10, mean_duration=0.5)

    def test_random_duration_mean_is_unbiased(self):
        """The geometric draw is used as-is: the sample mean of outage
        durations must sit at mean_duration, not mean_duration + 1."""
        topo = complete_topology(40, capacity=10.0, seed=0)  # 1560 links
        mean_duration = 3.0
        fm = FaultModel.random(
            topo,
            num_slots=50,
            outage_probability=1.0,
            mean_duration=mean_duration,
            seed=7,
        )
        durations = [o.end_slot - o.start_slot for o in fm.outages]
        assert len(durations) == 1560
        sample_mean = sum(durations) / len(durations)
        # Std of geometric(1/3) is sqrt(6) ~ 2.45; over 1560 draws the
        # standard error is ~0.06, so +/-0.25 is a four-sigma band that
        # still catches a +1 bias (which would land at 4.0).
        assert abs(sample_mean - mean_duration) < 0.25

    def test_is_down_cache_coherent_with_add(self):
        fm = FaultModel([Outage(0, 1, 0, 2)])
        assert fm.is_down(0, 1, 1)
        assert not fm.is_down(0, 1, 5)
        fm.add(Outage(0, 1, 5, 7))
        assert fm.is_down(0, 1, 5)
        assert fm.is_down(0, 1, 6)
        assert fm.downtime_slots(0, 1) == {0, 1, 5, 6}
        # The returned set is a copy: mutating it cannot corrupt the cache.
        fm.downtime_slots(0, 1).clear()
        assert fm.is_down(0, 1, 0)

    def test_file_round_trip(self, tmp_path):
        fm = FaultModel(
            [Outage(0, 1, 2, 4), Outage(2, 3, 1, 5, announced=False)]
        )
        path = tmp_path / "outages.json"
        fm.to_file(path)
        loaded = FaultModel.from_file(path)
        assert [
            (o.src, o.dst, o.start_slot, o.end_slot, o.announced)
            for o in loaded.outages
        ] == [(0, 1, 2, 4, True), (2, 3, 1, 5, False)]

    def test_from_file_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(SimulationError, match="list"):
            FaultModel.from_file(path)
        path.write_text('[{"src": 0, "dst": 1}]')
        with pytest.raises(SimulationError, match="missing"):
            FaultModel.from_file(path)


class TestSurpriseOutages:
    def test_surprise_invisible_until_revealed(self):
        fm = FaultModel([Outage(0, 1, 2, 5, announced=False)])
        assert fm.has_surprise
        assert fm.is_down(0, 1, 3)
        assert not fm.is_visible_down(0, 1, 3)
        assert fm.is_surprise_down(0, 1, 3)
        revealed = fm.reveal(0, 1, 2)
        assert len(revealed) == 1
        # The whole remaining span becomes visible, not just slot 2.
        for slot in (2, 3, 4):
            assert fm.is_visible_down(0, 1, slot)
            assert not fm.is_surprise_down(0, 1, slot)
        # Revealing again is a no-op.
        assert fm.reveal(0, 1, 3) == []

    def test_announced_outage_is_visible_immediately(self):
        fm = FaultModel([Outage(0, 1, 2, 5)])
        assert not fm.has_surprise
        assert fm.is_visible_down(0, 1, 3)
        assert not fm.is_surprise_down(0, 1, 3)
        assert fm.reveal(0, 1, 3) == []

    def test_copy_drops_reveals(self):
        fm = FaultModel([Outage(0, 1, 2, 5, announced=False)])
        fm.reveal(0, 1, 2)
        fresh = fm.copy()
        assert fresh.is_down(0, 1, 3)
        assert not fresh.is_visible_down(0, 1, 3)
        assert fm.is_visible_down(0, 1, 3)  # original keeps its reveal

    def test_as_surprise_demotes_everything(self):
        fm = FaultModel([Outage(0, 1, 2, 5), Outage(1, 2, 0, 1)])
        surprise = fm.as_surprise()
        assert surprise.has_surprise
        assert all(not o.announced for o in surprise.outages)
        assert surprise.downtime_slots(0, 1) == fm.downtime_slots(0, 1)

    def test_scheduler_cannot_see_surprise(self, line3):
        from repro.core import PostcardScheduler as PS

        scheduler = PS(line3, horizon=10)
        scheduler.state.fault_model = FaultModel(
            [Outage(0, 1, 0, 2, announced=False)]
        )
        # Invisible outage: residual capacity looks healthy.
        assert scheduler.state.residual_capacity(0, 1, 0) == 10.0


class TestSchedulingAroundFaults:
    def test_state_reports_zero_capacity(self, line3):
        scheduler = PostcardScheduler(line3, horizon=10)
        scheduler.state.fault_model = FaultModel([Outage(0, 1, 0, 2)])
        assert scheduler.state.residual_capacity(0, 1, 0) == 0.0
        assert scheduler.state.residual_capacity(0, 1, 2) == 10.0
        assert scheduler.state.paid_headroom(0, 1, 1) == 0.0

    def test_postcard_waits_out_an_outage(self, line3):
        scheduler = PostcardScheduler(line3, horizon=10)
        scheduler.state.fault_model = FaultModel([Outage(0, 1, 0, 2)])
        # Link (0,1) is down for slots 0-1; a 4-slot deadline lets the
        # optimizer hold the file at the source and send afterwards.
        request = TransferRequest(0, 1, 6.0, 4, release_slot=0)
        schedule = scheduler.on_slot(0, [request])
        volumes = schedule.link_slot_volumes()
        assert all(slot >= 2 for (_s, _d, slot) in volumes)
        assert schedule.delivered_volume(request) == pytest.approx(6.0)

    def test_postcard_routes_around_an_outage(self):
        topo = fig1_topology(capacity=100.0)
        scheduler = PostcardScheduler(topo, horizon=10)
        # The cheap relay 2->1 is dead for the whole window: pay direct.
        scheduler.state.fault_model = FaultModel([Outage(2, 1, 0, 10)])
        request = TransferRequest(2, 3, 6.0, 3, release_slot=0)
        schedule = scheduler.on_slot(0, [request])
        links = {(e.src, e.dst) for e in schedule.entries}
        assert (2, 1) not in links
        assert scheduler.state.current_cost_per_slot() == pytest.approx(20.0)

    def test_total_outage_infeasible(self, line3):
        scheduler = PostcardScheduler(line3, horizon=10)
        scheduler.state.fault_model = FaultModel([Outage(0, 1, 0, 10)])
        request = TransferRequest(0, 1, 6.0, 3, release_slot=0)
        with pytest.raises(InfeasibleError):
            scheduler.on_slot(0, [request])

    def test_direct_rejects_during_outage(self, line3):
        scheduler = DirectScheduler(line3, horizon=10, on_infeasible="drop")
        scheduler.state.fault_model = FaultModel([Outage(0, 1, 0, 10)])
        request = TransferRequest(0, 1, 6.0, 3, release_slot=0)
        scheduler.on_slot(0, [request])
        assert scheduler.state.rejected == [request]

    def test_greedy_routes_around(self):
        topo = fig1_topology(capacity=100.0)
        scheduler = GreedyStoreAndForwardScheduler(topo, horizon=10)
        scheduler.state.fault_model = FaultModel([Outage(2, 1, 0, 10)])
        request = TransferRequest(2, 3, 6.0, 3, release_slot=0)
        schedule = scheduler.on_slot(0, [request])
        links = {(e.src, e.dst) for e in schedule.entries}
        assert (2, 1) not in links

    def test_full_simulation_with_random_faults(self):
        topo = complete_topology(5, capacity=40.0, seed=9)
        faults = FaultModel.random(topo, num_slots=6, outage_probability=0.3, seed=1)
        scheduler = PostcardScheduler(topo, horizon=20, on_infeasible="drop")
        scheduler.state.fault_model = faults
        workload = PaperWorkload(topo, max_deadline=4, max_files=3, seed=2)
        result = Simulation(scheduler, workload, num_slots=6).run()
        assert result.max_lateness() == 0
        # Nothing was scheduled onto a downed link-slot.
        ledger = scheduler.state.ledger
        for src, dst in ledger.used_links():
            down = faults.downtime_slots(src, dst)
            for slot, volume in ledger.usage(src, dst).volumes.items():
                assert slot not in down or volume <= 1e-9
