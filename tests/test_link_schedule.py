"""LinkSchedule semantics, presets, and integration gates (PR 9).

Covers the availability-window container itself (half-open spans,
merging, epochs, JSON round-trips), the scenario generators, and the
three integration points: the NetworkState residual gate, the
window-aware CandidatePathIndex, and GraphCache incremental rebuilds
under schedule churn staying bit-identical to cold builds.
"""

import pytest

from repro.errors import TopologyError
from repro.heuristic.paths import CandidatePathIndex
from repro.net import AvailabilityWindow, LinkSchedule
from repro.net.generators import complete_topology, line_topology
from repro.net.presets import (
    global_cloud_topology,
    ground_station_downlink_schedule,
    leo_pass_schedule,
    maintenance_schedule,
)
from repro.core.state import NetworkState
from repro.timeexp.cache import GraphCache
from repro.timeexp.graph import ArcKind, TimeExpandedGraph


def arc_tuples(graph):
    return [
        (a.src, a.dst, a.slot, a.kind, a.capacity, a.price) for a in graph.arcs
    ]


class TestWindowSemantics:
    def test_unscheduled_link_is_always_up(self):
        schedule = LinkSchedule([AvailabilityWindow(0, 1, 2, 4)])
        assert schedule.is_up(3, 4, 0)
        assert schedule.up_in_range(3, 4, 0, 100)
        assert schedule.fully_up_in_range(3, 4, 0, 100)

    def test_half_open_window(self):
        schedule = LinkSchedule([AvailabilityWindow(0, 1, 2, 4)])
        assert not schedule.is_up(0, 1, 1)
        assert schedule.is_up(0, 1, 2)
        assert schedule.is_up(0, 1, 3)
        assert not schedule.is_up(0, 1, 4)

    def test_scheduled_but_windowless_link_is_dark(self):
        schedule = LinkSchedule()
        schedule.schedule_link(0, 1)
        assert not schedule.is_up(0, 1, 0)
        assert not schedule.up_in_range(0, 1, 0, 100)

    def test_windows_merge_overlap_and_adjacency(self):
        schedule = LinkSchedule()
        schedule.add_window(AvailabilityWindow(1, 2, 0, 3))
        schedule.add_window(AvailabilityWindow(1, 2, 3, 5))
        schedule.add_window(AvailabilityWindow(1, 2, 4, 6))
        schedule.add_window(AvailabilityWindow(1, 2, 8, 9))
        spans = [(w.start_slot, w.end_slot) for w in schedule.windows_for(1, 2)]
        assert spans == [(0, 6), (8, 9)]

    def test_up_in_range_and_fully_up(self):
        schedule = LinkSchedule([AvailabilityWindow(0, 1, 2, 5)])
        assert schedule.up_in_range(0, 1, 0, 3)
        assert not schedule.up_in_range(0, 1, 0, 2)
        assert not schedule.up_in_range(0, 1, 5, 9)
        assert schedule.fully_up_in_range(0, 1, 2, 5)
        assert schedule.fully_up_in_range(0, 1, 3, 4)
        assert not schedule.fully_up_in_range(0, 1, 2, 6)

    def test_invalid_windows_rejected(self):
        with pytest.raises(TopologyError):
            AvailabilityWindow(0, 0, 1, 2)
        with pytest.raises(TopologyError):
            AvailabilityWindow(0, 1, 3, 3)
        with pytest.raises(TopologyError):
            AvailabilityWindow(0, 1, -1, 2)

    def test_epochs_bump_on_every_mutation(self):
        schedule = LinkSchedule()
        assert schedule.epoch == 0
        schedule.add_window(AvailabilityWindow(0, 1, 0, 2))
        assert schedule.epoch == 1
        assert schedule.link_epoch(0, 1) == 1
        assert schedule.link_epoch(2, 3) == 0
        schedule.set_windows(2, 3, [(1, 4)])
        assert schedule.epoch == 2
        assert schedule.link_epoch(2, 3) == 2
        assert schedule.link_epoch(0, 1) == 1

    def test_coverage(self):
        schedule = LinkSchedule([AvailabilityWindow(0, 1, 0, 5)])
        assert schedule.coverage(10) == pytest.approx(0.5)
        schedule.schedule_link(2, 3)  # dark throughout
        assert schedule.coverage(10) == pytest.approx(0.25)
        assert LinkSchedule().coverage(10) == 1.0

    def test_file_round_trip(self, tmp_path):
        schedule = LinkSchedule(
            [AvailabilityWindow(0, 1, 2, 4), AvailabilityWindow(1, 2, 0, 9)]
        )
        schedule.schedule_link(4, 5)  # windowless: must survive the trip
        path = tmp_path / "windows.json"
        schedule.to_file(path)
        loaded = LinkSchedule.from_file(path)
        assert loaded.to_payload() == schedule.to_payload()
        assert not loaded.is_up(4, 5, 0)

    def test_from_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(TopologyError):
            LinkSchedule.from_file(path)
        path.write_text("{}")
        with pytest.raises(TopologyError):
            LinkSchedule.from_file(path)


class TestPresets:
    def test_leo_pass_schedule_is_deterministic_and_periodic(self):
        topo = global_cloud_topology()
        a = leo_pass_schedule(topo, 24, fraction=0.3, period=8, pass_length=3, seed=5)
        b = leo_pass_schedule(topo, 24, fraction=0.3, period=8, pass_length=3, seed=5)
        assert a.to_payload() == b.to_payload()
        assert len(a) == max(1, round(0.3 * topo.num_links))
        for src, dst in a.scheduled_links():
            for w in a.windows_for(src, dst):
                assert 0 <= w.start_slot < w.end_slot <= 24
                assert w.end_slot - w.start_slot <= 3

    def test_downlink_schedule_windows_every_station_link(self):
        topo = complete_topology(5, capacity=10.0, seed=0)
        schedule = ground_station_downlink_schedule(
            topo, 12, station_dcs=[2], period=6, window_length=2
        )
        touched = {
            (l.src, l.dst) for l in topo.links if 2 in (l.src, l.dst)
        }
        assert set(schedule.scheduled_links()) == touched
        with pytest.raises(TopologyError):
            ground_station_downlink_schedule(topo, 12, station_dcs=[99])

    def test_maintenance_schedule_is_complement(self):
        topo = complete_topology(4, capacity=10.0, seed=0)
        schedule = maintenance_schedule(topo, 12, [((0, 1), 2, 4)])
        for slot in range(12):
            assert schedule.is_up(0, 1, slot) == (slot < 2 or slot >= 4)
        assert schedule.is_up(1, 0, 7)  # untouched link stays up

    def test_maintenance_repeat_every(self):
        topo = complete_topology(4, capacity=10.0, seed=0)
        schedule = maintenance_schedule(
            topo, 12, [((0, 1), 0, 2)], repeat_every=6
        )
        downs = [s for s in range(12) if not schedule.is_up(0, 1, s)]
        assert downs == [0, 1, 6, 7]

    def test_maintenance_rejects_unknown_link(self):
        topo = line_topology(3, capacity=10.0)
        with pytest.raises(TopologyError):
            maintenance_schedule(topo, 10, [((2, 0), 1, 2)])


class TestStateGate:
    def test_residual_capacity_zero_on_dark_slots(self):
        topo = complete_topology(4, capacity=10.0, seed=0)
        state = NetworkState(topo, horizon=12)
        state.link_schedule = LinkSchedule([AvailabilityWindow(0, 1, 3, 6)])
        assert state.residual_capacity(0, 1, 2) == 0.0
        assert state.residual_capacity(0, 1, 3) == 10.0
        assert state.residual_capacity(0, 1, 6) == 0.0
        assert state.residual_capacity(2, 3, 0) == 10.0
        assert state.paid_headroom(0, 1, 2) == 0.0


class TestWindowAwarePaths:
    def test_paths_avoid_fully_dark_hops(self):
        topo = complete_topology(4, capacity=10.0, seed=1)
        index = CandidatePathIndex(topo, max_paths=4)
        schedule = LinkSchedule()
        schedule.schedule_link(0, 1)  # direct link dark forever
        paths = index.candidates(0, 1, 3, schedule=schedule, window=(0, 4))
        assert paths, "detour paths must be discovered"
        assert [0, 1] not in paths
        # Without the schedule, the direct link is a candidate again.
        assert [0, 1] in index.candidates(0, 1, 3)

    def test_fully_lit_paths_rank_first(self):
        topo = complete_topology(4, capacity=10.0, seed=1)
        index = CandidatePathIndex(topo, max_paths=4)
        schedule = LinkSchedule([AvailabilityWindow(0, 1, 0, 1)])
        paths = index.candidates(0, 1, 3, schedule=schedule, window=(0, 4))
        assert paths
        lit = [
            all(
                schedule.fully_up_in_range(a, b, 0, 4)
                for a, b in zip(p, p[1:])
            )
            for p in paths
        ]
        # Monotone: once a partially-dark path appears, no fully-lit
        # path may follow it.
        assert lit == sorted(lit, reverse=True)

    def test_reopened_link_rediscovered_without_rebuild(self):
        topo = complete_topology(4, capacity=10.0, seed=1)
        index = CandidatePathIndex(topo, max_paths=4)
        schedule = LinkSchedule()
        schedule.schedule_link(0, 1)
        dark = index.candidates(0, 1, 3, schedule=schedule, window=(0, 4))
        assert [0, 1] not in dark
        # The link reopens; the epoch-keyed window cache must miss and
        # the very next query must see the direct path again.
        schedule.add_window(AvailabilityWindow(0, 1, 0, 4))
        lit = index.candidates(0, 1, 3, schedule=schedule, window=(0, 4))
        assert [0, 1] in lit

    def test_schedules_with_the_same_epoch_do_not_share_answers(self):
        """Two schedules of one mutation each both read epoch 1: the
        index must answer B's window from B's spans, not from A's."""
        topo = complete_topology(4, capacity=10.0, seed=1)
        index = CandidatePathIndex(topo, max_paths=4)
        a = LinkSchedule([AvailabilityWindow(0, 1, 0, 8)])
        b = LinkSchedule([AvailabilityWindow(0, 1, 20, 28)])
        assert a.epoch == b.epoch == 1
        assert [0, 1] in index.candidates(0, 1, 3, a, (0, 4))
        expected = [[0, 3, 1], [0, 3, 2, 1], [0, 2, 1], [0, 2, 3, 1]]
        assert index.candidates(0, 1, 3, b, (0, 4)) == expected
        fresh = CandidatePathIndex(topo, max_paths=4)
        assert fresh.candidates(0, 1, 3, b, (0, 4)) == expected

    def test_up_mask_is_relative_to_its_start(self):
        schedule = LinkSchedule([
            AvailabilityWindow(0, 1, 2, 5), AvailabilityWindow(0, 1, 7, 9),
            AvailabilityWindow(2, 3, 10**9, 10**9 + 2),
        ])
        assert schedule.up_mask(0, 1, 0, 10) == 0b0110011100
        assert schedule.up_mask(0, 1, 3, 8) == 0b10011
        assert schedule.up_mask(0, 1, 5, 7) == 0
        assert schedule.up_mask(0, 1, 4, 4) == 0
        assert schedule.up_mask(1, 0, 6, 9) == 0b111  # unscheduled: always up
        assert schedule.up_mask(2, 3, 10**9 - 1, 10**9 + 3) == 0b0110
        for start in range(10):
            for end in range(start, 12):
                mask = schedule.up_mask(0, 1, start, end)
                assert [bool(mask >> i & 1) for i in range(end - start)] == [
                    schedule.is_up(0, 1, slot) for slot in range(start, end)
                ]


class TestGraphCacheChurn:
    def test_incremental_equals_cold_under_schedule_churn(self):
        topo = complete_topology(5, capacity=10.0, seed=2)
        schedule = LinkSchedule(
            [AvailabilityWindow(0, 1, 0, 3), AvailabilityWindow(1, 2, 4, 8)]
        )
        cache = GraphCache(topo, link_schedule=schedule)
        mutations = [
            lambda: schedule.set_windows(0, 1, [(2, 6)]),
            lambda: schedule.schedule_link(2, 3),
            lambda: schedule.add_window(AvailabilityWindow(2, 3, 1, 2)),
            lambda: schedule.set_windows(1, 2, [(0, 8)]),
            lambda: None,  # static build: the bit-identical fast path
        ]
        for mutate in mutations:
            mutate()
            incremental = cache.build(0, 8)
            cold = TimeExpandedGraph(topo, 0, 8, link_schedule=schedule)
            assert arc_tuples(incremental) == arc_tuples(cold)

    def test_static_schedule_rebuild_reuses_every_arc(self):
        topo = complete_topology(5, capacity=10.0, seed=2)
        schedule = LinkSchedule([AvailabilityWindow(0, 1, 0, 3)])
        cache = GraphCache(topo, link_schedule=schedule)
        cache.build(0, 6)
        refreshed_before = cache.refreshed_arcs
        graph = cache.build(0, 6)
        assert cache.refreshed_arcs == refreshed_before
        assert cache.reused_arcs >= graph.num_arcs

    def test_churn_refreshes_only_mutated_links(self):
        topo = complete_topology(5, capacity=10.0, seed=2)
        schedule = LinkSchedule([AvailabilityWindow(0, 1, 0, 3)])
        cache = GraphCache(topo, link_schedule=schedule)
        cache.build(0, 8)
        refreshed_before = cache.refreshed_arcs
        schedule.set_windows(0, 1, [(1, 5)])
        cache.build(0, 8)
        # At most the mutated link's 8 slots may have been rebuilt.
        assert cache.refreshed_arcs - refreshed_before <= 8

    def test_dark_arcs_have_zero_capacity(self):
        topo = complete_topology(4, capacity=10.0, seed=0)
        schedule = LinkSchedule([AvailabilityWindow(0, 1, 2, 4)])
        graph = TimeExpandedGraph(topo, 0, 6, link_schedule=schedule)
        for arc in graph.arcs:
            if arc.kind is not ArcKind.TRANSIT or arc.link_key != (0, 1):
                continue
            expected = 10.0 if 2 <= arc.slot < 4 else 0.0
            assert arc.capacity == expected
        # Holdover arcs are never gated.
        assert all(
            a.capacity == float("inf")
            for a in graph.arcs
            if a.kind is ArcKind.HOLDOVER
        )
