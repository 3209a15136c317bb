"""Salvage-and-replan recovery from surprise outages.

The invariants under test: a surprise failure never crashes a run, the
post-run audit passes with voided traffic excluded, per-run accounting
sums (disrupted = salvaged + lost), and with zero outages the recovery
machinery leaves results bit-identical to a fault-free run.
"""

import pytest

from repro.baselines import DirectScheduler
from repro.core import PostcardScheduler, ReplanningPostcardScheduler
from repro.errors import RecoveryError
from repro.net.generators import complete_topology, line_topology
from repro.sim import FaultModel, Outage, RecoveryManager, Simulation
from repro.traffic import PaperWorkload, TransferRequest
from repro.traffic.workload import TraceWorkload


def line4():
    return line_topology(4, capacity=10.0)


class TestSalvageViaReplan:
    def test_full_salvage_on_single_slot_failure(self, line3):
        """A one-slot surprise failure on the only link: the voided
        volume is re-sent after the outage, still within deadline."""
        scheduler = PostcardScheduler(line3, horizon=10)
        scheduler.state.fault_model = FaultModel(
            [Outage(0, 1, 0, 1, announced=False)]
        )
        request = TransferRequest(0, 1, 6.0, 4, release_slot=0)
        result = Simulation(
            scheduler, TraceWorkload([request]), num_slots=6
        ).run()

        assert result.disrupted_gb == pytest.approx(6.0)
        assert result.salvaged_gb == pytest.approx(6.0)
        assert result.lost_gb == 0.0
        assert result.deadline_misses == 0
        assert request.request_id in scheduler.state.completions
        # The dead slot carries nothing; the volume moved afterwards.
        assert scheduler.state.ledger.volume(0, 1, 0) == 0.0
        assert sum(
            scheduler.state.ledger.volume(0, 1, s) for s in range(1, 5)
        ) == pytest.approx(6.0)

    def test_parked_data_survives_midpath_failure(self):
        """Data already relayed to an intermediate node is not re-sent
        from the source: the replan starts from where the bytes sit."""
        topo = line4()
        scheduler = PostcardScheduler(topo, horizon=12)
        # Kill the middle hop (1,2) at slot 1 only, as a surprise.
        scheduler.state.fault_model = FaultModel(
            [Outage(1, 2, 1, 2, announced=False)]
        )
        request = TransferRequest(0, 3, 6.0, 6, release_slot=0)
        result = Simulation(
            scheduler, TraceWorkload([request]), num_slots=8
        ).run()

        assert result.lost_gb == 0.0
        assert result.max_lateness() == 0
        # Whatever the failure disrupted was fully salvaged.
        assert result.salvaged_gb == pytest.approx(result.disrupted_gb)
        # Nothing ever re-crossed (0,1) beyond the original 6 GB: the
        # salvage restarted from the stranded supplies, not the source.
        total_01 = sum(
            scheduler.state.ledger.volume(0, 1, s) for s in range(12)
        )
        assert total_01 == pytest.approx(6.0)

    def test_replanning_scheduler_uses_resupply_hook(self, line3):
        scheduler = ReplanningPostcardScheduler(line3, horizon=10)
        scheduler.state.fault_model = FaultModel(
            [Outage(0, 1, 0, 1, announced=False)]
        )
        request = TransferRequest(0, 1, 6.0, 4, release_slot=0)
        result = Simulation(
            scheduler, TraceWorkload([request]), num_slots=6
        ).run()
        assert result.salvaged_gb == pytest.approx(result.disrupted_gb)
        assert result.lost_gb == 0.0
        assert result.recovery_replans >= 1
        assert request.request_id in scheduler.state.completions


class TestSloViolation:
    def test_unrecoverable_failure_is_recorded_not_raised(self, line3):
        """The only link dies for the file's whole remaining window:
        nothing can be salvaged, and the run records the loss."""
        scheduler = PostcardScheduler(line3, horizon=12)
        scheduler.state.fault_model = FaultModel(
            [Outage(0, 1, 0, 12, announced=False)]
        )
        request = TransferRequest(0, 1, 6.0, 3, release_slot=0)
        result = Simulation(
            scheduler, TraceWorkload([request]), num_slots=6
        ).run()

        assert result.disrupted_gb == pytest.approx(6.0)
        assert result.salvaged_gb == 0.0
        assert result.lost_gb == pytest.approx(6.0)
        assert result.deadline_misses == 1
        assert result.slo_violations == [request.request_id]
        # The failed file is no longer recorded as completed.
        assert request.request_id not in scheduler.state.completions

    def test_replanner_file_hit_in_its_last_slot_is_a_miss(self, line3):
        """A surprise failure in a file's last slot leaves the replanner
        nothing to re-derive: the file is lost, and later slots still run."""
        scheduler = ReplanningPostcardScheduler(line3, horizon=10)
        scheduler.state.fault_model = FaultModel(
            [Outage(0, 1, 0, 1, announced=False)]
        )
        stranded = TransferRequest(0, 1, 6.0, 1, release_slot=0)
        later = TransferRequest(1, 2, 3.0, 4, release_slot=1)
        result = Simulation(
            scheduler, TraceWorkload([stranded, later]), num_slots=6
        ).run()

        assert result.lost_gb == pytest.approx(6.0)
        assert result.salvaged_gb == 0.0
        assert result.slo_violations == [stranded.request_id]
        assert stranded.request_id not in scheduler.state.completions
        assert later.request_id in scheduler.state.completions
        assert not scheduler.active

    def test_partial_salvage_splits_accounting(self, line3):
        """Capacity after the failure covers only part of the file:
        salvaged + lost must still sum to the disrupted volume."""
        scheduler = PostcardScheduler(line3, horizon=12)
        # Dead for slots 0-2; deadline allows slot 3 only (10 GB room).
        scheduler.state.fault_model = FaultModel(
            [Outage(0, 1, 0, 3, announced=False)]
        )
        request = TransferRequest(0, 1, 14.0, 4, release_slot=0)
        result = Simulation(
            scheduler, TraceWorkload([request]), num_slots=6
        ).run()

        assert result.disrupted_gb == pytest.approx(14.0)
        assert result.salvaged_gb == pytest.approx(10.0)
        assert result.lost_gb == pytest.approx(4.0)
        assert result.deadline_misses == 1
        assert result.salvaged_gb + result.lost_gb == pytest.approx(
            result.disrupted_gb
        )


class TestZeroOutageIdentity:
    def test_empty_fault_model_is_bit_identical(self, small_complete):
        def run(with_faults):
            scheduler = PostcardScheduler(
                small_complete, horizon=16, on_infeasible="drop"
            )
            if with_faults:
                scheduler.state.fault_model = FaultModel([])
            workload = PaperWorkload(
                small_complete, max_deadline=4, max_files=3, seed=5
            )
            return scheduler, Simulation(scheduler, workload, num_slots=8).run()

        sched_a, plain = run(False)
        sched_b, faulted = run(True)
        assert faulted.final_cost_per_slot == plain.final_cost_per_slot
        # request_ids are process-global counters, so compare the
        # multiset of completion slots rather than raw id keys.
        assert sorted(sched_a.state.completions.values()) == sorted(
            sched_b.state.completions.values()
        )
        assert sched_a.state.charged_snapshot() == sched_b.state.charged_snapshot()
        assert faulted.disrupted_gb == 0.0
        assert faulted.salvaged_gb == 0.0
        assert faulted.slo_violations == []

    def test_announced_outages_skip_recovery_path(self, small_complete):
        """Announced-only faults never instantiate a RecoveryManager;
        the scheduler simply plans around them."""
        scheduler = PostcardScheduler(
            small_complete, horizon=16, on_infeasible="drop"
        )
        scheduler.state.fault_model = FaultModel.random(
            small_complete, num_slots=6, outage_probability=0.3, seed=1
        )
        workload = PaperWorkload(small_complete, max_deadline=4, max_files=3, seed=5)
        result = Simulation(scheduler, workload, num_slots=8).run()
        assert result.disrupted_gb == 0.0
        assert result.recovery_replans == 0


class TestRandomChaos:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_random_surprise_runs_clean(self, seed):
        """Seeded chaos: random surprise outages over a real workload
        complete without raising, pass the audit, and balance the
        salvage ledger."""
        topo = complete_topology(5, capacity=40.0, seed=seed)
        faults = FaultModel.random(
            topo,
            num_slots=8,
            outage_probability=0.4,
            mean_duration=2.0,
            seed=seed,
            announced=False,
        )
        scheduler = PostcardScheduler(topo, horizon=20, on_infeasible="drop")
        scheduler.state.fault_model = faults
        workload = PaperWorkload(topo, max_deadline=4, max_files=4, seed=seed + 100)
        result = Simulation(scheduler, workload, num_slots=8).run(audit=True)

        assert result.salvaged_gb + result.lost_gb == pytest.approx(
            result.disrupted_gb
        )
        # Ground truth: no surviving ledger volume on any downed slot.
        ledger = scheduler.state.ledger
        for src, dst in ledger.used_links():
            down = faults.downtime_slots(src, dst)
            for slot, volume in ledger.usage(src, dst).volumes.items():
                assert slot not in down or volume <= 1e-9

    def test_direct_scheduler_salvages_too(self):
        """Recovery is scheduler-agnostic: even the LP-free direct
        baseline gets its committed traffic salvaged."""
        topo = complete_topology(4, capacity=30.0, seed=2)
        faults = FaultModel.random(
            topo, num_slots=6, outage_probability=0.5, seed=4, announced=False
        )
        scheduler = DirectScheduler(topo, horizon=16, on_infeasible="drop")
        scheduler.state.fault_model = faults
        workload = PaperWorkload(topo, max_deadline=4, max_files=3, seed=8)
        result = Simulation(scheduler, workload, num_slots=6).run(audit=True)
        assert result.salvaged_gb + result.lost_gb == pytest.approx(
            result.disrupted_gb
        )


    def test_fluid_relays_die_with_the_hop_that_fed_them(self):
        """``repro simulate --surprise --schedulers flow-based`` at its
        default size.  A flow-based schedule relays within the slot, so
        the same slot's hops after a dead one never got the data: voiding
        the dead hop alone left relay 6 of file 23 with -18.95 GB."""
        from repro.sim.parallel import (
            TOPOLOGY_COMPLETE, FaultSpec, comparison_tasks, execute_task,
        )
        from repro.sim.runner import ExperimentSetting

        setting = ExperimentSetting(
            "simulate", capacity=30.0, max_deadline=4, num_datacenters=8,
            num_slots=10, max_files=6,
        )
        (task,) = comparison_tasks(
            setting, ["flow-based"], runs=1, faults=FaultSpec(announced=False),
            topology=TOPOLOGY_COMPLETE,
        )
        _, _, result = execute_task(task)  # audited
        assert result.disrupted_gb > 0 and result.salvaged_gb > 0
        assert result.salvaged_gb + result.lost_gb == pytest.approx(
            result.disrupted_gb
        )


class TestRecoveryManagerInternals:
    def test_reconstruct_rejects_negative_supply(self, line3):
        scheduler = PostcardScheduler(line3, horizon=10)
        manager = RecoveryManager(scheduler, FaultModel([]))
        request = TransferRequest(0, 2, 6.0, 4, release_slot=0)
        from repro.core.schedule import ScheduleEntry

        # An executed entry moving volume that was never at its tail.
        bogus = [ScheduleEntry(request.request_id, 1, 2, 0, 99.0)]
        with pytest.raises(RecoveryError, match="negative"):
            manager._reconstruct(request, bogus)

    def test_slot_report_lands_in_slot_records(self, line3):
        scheduler = PostcardScheduler(line3, horizon=10)
        scheduler.state.fault_model = FaultModel(
            [Outage(0, 1, 0, 1, announced=False)]
        )
        request = TransferRequest(0, 1, 6.0, 4, release_slot=0)
        result = Simulation(
            scheduler, TraceWorkload([request]), num_slots=6
        ).run()
        hit = [r for r in result.slots if r.disrupted_gb > 0]
        assert len(hit) == 1
        assert hit[0].slot == 0
        assert hit[0].salvaged_gb == pytest.approx(6.0)
        assert "salvaged" in result.summary()

