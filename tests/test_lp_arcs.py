"""The path-pruned LP lane's contract (PR 16).

The hybrid scheduler's LP lane gives each file variables only on the
arcs of the paths its :class:`CandidatePathIndex` knows for it, at the
slots hop-reachability allows; the paper's full model stays the oracle:

* the hop bounds are lossless (pruned == full when the paths cover the
  graph), and the array assembler's pruned problem is the reference
  assembler's, matrix for matrix;
* any batch the fast lane admits is feasible for the pruned LP, with
  ``full <= pruned <= fast lane`` in cost;
* widen before shed: an infeasible pruned batch is re-solved on the full
  model, so nothing the parent build admitted is refused;
* WAL commit records carry the plan an LP slot committed, and a killed
  broker's resume commits it without planning.
"""

from __future__ import annotations

import os

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import PostcardScheduler, build_postcard_model
from repro.core.formulation import ArcSet
from repro.core.state import NetworkState
from repro.heuristic import HybridScheduler
from repro.heuristic.paths import CandidatePathIndex
from repro.net.generators import complete_topology
from repro.net.schedule import LinkSchedule
from repro.net.topology import Datacenter, Link, Topology
from repro.obs import registry as obs
from repro.service.config import ServiceConfig
from repro.service.slotloop import TransferBroker
from repro.traffic.spec import TransferRequest
from tests.obs_events import Events
from tests.paths_reference import to_networkx
from tests.schedule_reference import preview_cost


#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "10"))


def _batch(rng, nodes, slot, count, size, deadline):
    requests = []
    for _ in range(count):
        src = int(rng.integers(0, nodes))
        dst = (src + int(rng.integers(1, nodes))) % nodes
        requests.append(TransferRequest(
            src, dst, round(float(rng.uniform(*size)), 3),
            int(rng.integers(deadline[0], deadline[1] + 1)), release_slot=slot,
        ))
    return requests


def _arc_sets(index, requests, schedule=None):
    return [index.arc_set(request, schedule) for request in requests]


def _cells(state):
    return {
        f"{link.src},{link.dst},{slot}": volume
        for link in state.topology.links
        for slot, volume in sorted(
            state.ledger.usage(link.src, link.dst).volumes.items()
        )
    }


@pytest.fixture
def events():
    sink = obs.get_registry().add_sink(Events())
    yield sink
    obs.get_registry().remove_sink(sink)


# -- the pruned model against its oracles -----------------------------------


@pytest.mark.parametrize("seed", range(2))
def test_hop_bounds_are_lossless_when_paths_cover_the_graph(seed):
    """4 nodes, an arc set over all 5 simple paths of each pair: it
    drops only time copies no route can cross (and the arcs into a
    source / out of a destination no optimum needs), so pruned and full
    objectives agree solve after solve.  The index hands out no set
    there — its search ran dry, so it has nothing real to prune."""
    topology = complete_topology(4, capacity=25.0, seed=seed)
    lane = PostcardScheduler(topology, 60)
    graph = to_networkx(topology)
    index = CandidatePathIndex(topology, max_paths=3)
    rng = np.random.default_rng(seed)
    for slot in range(5):
        requests = _batch(rng, 4, slot, 5, (2.0, 14.0), (1, 5))
        assert not any(_arc_sets(index, requests))
        sets = [
            ArcSet.from_paths(
                topology, r.source, r.destination,
                nx.all_simple_paths(graph, r.source, r.destination),
            )
            for r in requests
        ]
        pruned = build_postcard_model(lane.state, requests, arc_sets=sets)
        full = build_postcard_model(lane.state, requests)
        assert pruned.num_variables < full.num_variables
        schedule, pruned_solution = pruned.solve()
        _, full_solution = full.solve()
        assert pruned_solution.objective == pytest.approx(
            full_solution.objective, rel=1e-9, abs=1e-9
        )
        lane.state.commit(schedule, requests)


def test_pruned_fast_assembly_matches_the_reference_assembler():
    """Same rows, same columns, same floats — with commitments in the
    ledger, zero-capacity arcs dropped, and one file left unpruned; and
    a set that strands a file at its source is refused by both."""
    from tests.test_compile_equivalence import assert_fast_matches_reference

    topology = complete_topology(6, capacity=30.0, seed=5)
    lane = PostcardScheduler(topology, 60)
    index = CandidatePathIndex(topology, max_paths=2)
    graph = to_networkx(topology)
    rng = np.random.default_rng(5)
    compared = 0
    for slot in range(4):
        requests = _batch(rng, 6, slot, 8, (4.0, 25.0), (1, 5))
        sets = [None] + _arc_sets(index, requests[1:])
        if slot == 0:
            # The index gives every file a path within its deadline; one
            # longer path strands the file at its source.
            n, tight = next((n, r) for n, r in enumerate(requests)
                            if n and r.deadline_slots < 5)
            sets[n] = ArcSet.from_paths(topology, tight.source, tight.destination, [next(
                path for path in nx.all_simple_paths(graph, tight.source, tight.destination)
                if len(path) - 1 > tight.deadline_slots
            )])
        built = assert_fast_matches_reference(lane.state, requests, arc_sets=sets)
        compared += built is not None
        lane.commit_plan(lane.plan_slot(slot, requests, sets))
    assert 2 <= compared < 4


def test_arc_sets_refuse_the_storage_ablation():
    from repro.errors import SchedulingError

    topology = complete_topology(4, capacity=25.0, seed=1)
    state = NetworkState(topology, 20)
    requests = [TransferRequest(0, 1, 5.0, 3, release_slot=0)]
    sets = _arc_sets(CandidatePathIndex(topology, max_paths=2), requests)
    with pytest.raises(SchedulingError):
        build_postcard_model(
            state, requests, storage="destination_only", arc_sets=sets
        )
    with pytest.raises(SchedulingError):
        build_postcard_model(state, requests, arc_sets=sets * 2)


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(4, 6),
    files=st.integers(1, 8),
    warm_slots=st.integers(0, 2),
    windows=st.booleans(),
)
def test_fast_lane_admission_implies_pruned_feasibility(
    seed, nodes, files, warm_slots, windows
):
    """Whatever the fast lane fully admits, the pruned LP can place at
    no more than the fast lane's cost and no less than the full LP's —
    on a loaded ledger, with and without dark windows."""
    topology = complete_topology(nodes, capacity=20.0, seed=seed)
    scheduler = HybridScheduler(
        topology, 60, num_candidate_paths=2, on_infeasible="drop"
    )
    state = scheduler.state
    rng = np.random.default_rng(seed)
    if windows:
        schedule = LinkSchedule()
        for link in topology.links:
            if rng.random() < 0.4:
                phase = int(rng.integers(0, 4))
                schedule.set_windows(
                    link.src, link.dst,
                    [(start, start + 2) for start in range(phase, 40, 4)],
                )
        state.link_schedule = schedule
    for slot in range(warm_slots):
        scheduler.on_slot(slot, _batch(rng, nodes, slot, 4, (2.0, 12.0), (1, 5)))

    slot = warm_slots
    requests = _batch(rng, nodes, slot, files, (1.0, 15.0), (1, 6))
    plan = scheduler.fast_lane.plan_slot(slot, requests)
    assume(not plan.rejected)
    fast_cost = preview_cost(state, plan.schedule)

    pruned = build_postcard_model(
        state, requests, arc_sets=scheduler.arc_sets(requests, plan)
    )
    placed, pruned_solution = pruned.solve()  # InfeasibleError fails the test
    _, full_solution = build_postcard_model(state, requests).solve()
    slack = 1e-6 * max(1.0, fast_cost)
    assert full_solution.objective <= pruned_solution.objective + slack
    assert pruned_solution.objective <= fast_cost + slack
    state.commit(placed, requests)  # TransferSchedule.validate inside
    assert all(r.request_id in state.completions for r in requests)


# -- widen before shed --------------------------------------------------------


def _detour_topology():
    """0 -> 1 direct and via 2 (the two cached paths at K=1), plus a
    3-hop detour 0 -> 3 -> 4 -> 1 the index never learns (3 -> 2 gives
    0 -> 2 a second path, so that pair is pruned too)."""
    links = [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0),
             (0, 3, 2.0), (3, 4, 2.0), (4, 1, 2.0), (3, 2, 2.0)]
    return Topology(
        [Datacenter(i) for i in range(5)],
        [Link(a, b, price=p, capacity=10.0) for a, b, p in links],
    )


def _saturate_known_paths(state):
    for src, dst in ((0, 1), (2, 1)):
        for slot in range(4):
            state.ledger.record(src, dst, slot, 10.0)


def test_infeasible_pruned_batch_widens_and_admits(events):
    scheduler = HybridScheduler(_detour_topology(), 40, num_candidate_paths=1)
    _saturate_known_paths(scheduler.state)
    request = TransferRequest(0, 1, 8.0, 3, release_slot=0)

    lane, index = scheduler.lp_lane, scheduler.fast_lane._paths
    lane.commit_plan(lane.plan_slot(0, [request], _arc_sets(index, [request])))
    assert scheduler.lp_widened == 1
    assert len(events.named("hybrid.lp_widened")) == 1
    assert request.request_id in scheduler.state.completions
    assert not scheduler.state.rejected
    assert scheduler.state.ledger.volume(3, 4, 1) == pytest.approx(8.0)
    builds = [e["attrs"] for e in events.named("lp.build")]
    assert [b["arcs"] for b in builds] == ["paths", "full"]
    assert builds[0]["columns"] < builds[1]["columns"]
    assert all(b["rows"] > 0 for b in builds)


def test_fast_lane_rejections_reach_the_lp_unpruned(events):
    """The hybrid hands the LP the files its fast lane could not place
    on their known paths with the full arc set, so the common reason to
    widen — those very paths are full or dark — costs one solve."""
    scheduler = HybridScheduler(_detour_topology(), 40, num_candidate_paths=1)
    _saturate_known_paths(scheduler.state)
    blocked = TransferRequest(0, 1, 8.0, 3, release_slot=0)
    easy = TransferRequest(0, 2, 4.0, 2, release_slot=0)
    scheduler.on_slot(0, [blocked, easy])
    assert scheduler.escalations == 1 and scheduler.lp_widened == 0
    assert not scheduler.state.rejected
    assert [e["attrs"]["arcs"] for e in events.named("lp.build")] == ["paths"]


def test_shedding_still_runs_on_the_full_model():
    """Nothing can carry 80 GB in 3 slots: pruned infeasible, full
    infeasible, and only then does the drop policy reject."""
    scheduler = HybridScheduler(
        _detour_topology(), 40, num_candidate_paths=1, on_infeasible="drop"
    )
    hopeless = TransferRequest(0, 1, 80.0, 3, release_slot=0)
    fits = TransferRequest(0, 2, 4.0, 2, release_slot=0)
    lane, index = scheduler.lp_lane, scheduler.fast_lane._paths
    batch = [hopeless, fits]
    lane.commit_plan(lane.plan_slot(0, batch, _arc_sets(index, batch)))
    assert scheduler.lp_widened == 1
    assert [r.request_id for r in scheduler.state.rejected] == [hopeless.request_id]
    assert fits.request_id in scheduler.state.completions


def test_a_stream_refuses_only_what_the_full_model_refuses_from_that_state():
    """What widen-before-shed does guarantee, slot by slot on the
    overloaded ``hybrid_escalations`` stream of ``test_fastlane_pins``:
    every file the hybrid refuses, the paper's full model refuses too
    when handed the same ledger.  (Over a *stream* there is no such
    guarantee in either direction — the lanes reach later slots with
    different headroom; seed 17 ends one admission behind the full lane,
    seed 7 three ahead.  ``scripts/sweep_lp_admissions.py`` measures it.)"""
    import copy

    from tests.test_fastlane_pins import DATACENTERS, HORIZON, _requests, _stream

    seed = 17
    topology = complete_topology(DATACENTERS, capacity=40.0, seed=seed)
    scheduler = HybridScheduler(topology, HORIZON, on_infeasible="drop")
    refused = 0
    for slot, batch in enumerate(_stream(seed, 10, 12, size=(5.0, 40.0))):
        requests = _requests(batch, slot)
        oracle = PostcardScheduler(topology, HORIZON, on_infeasible="drop")
        oracle.adopt_state(copy.deepcopy(scheduler.state))
        full = {r.request_id for r in oracle.plan_slot(slot, requests).rejected}
        scheduler.on_slot(slot, requests)
        mine = {
            r.request_id for r in requests
            if r.request_id not in scheduler.state.completions
        }
        assert mine <= full
        refused += len(mine)
    assert refused and scheduler.lp_widened  # the stream does shed, via widening


# -- size pin: the dark-window shape that used to cost 17 s -------------------


def test_dark_window_escalation_builds_a_quarter_of_the_columns():
    """A 120-request cut of the shape spine/README.md reshaped away from
    (seed 109: deadline U{3..8}, 30% of links up 5 slots in 8): a file
    whose paths are all dark in its window is rejected by the fast lane,
    the slot escalates, and the model the LP lane builds for it has at
    most a quarter of the full model's columns."""
    rng = np.random.default_rng(109)
    nodes, count = 10, 120
    source = rng.integers(0, nodes, count)
    destination = (source + rng.integers(1, nodes, count)) % nodes
    size = rng.uniform(0.05, 0.25, count)
    deadline = rng.integers(3, 9, count)
    requests = [
        TransferRequest(int(source[n]), int(destination[n]),
                        round(float(size[n]), 6), int(deadline[n]), release_slot=0)
        for n in range(count)
    ]
    # One guaranteed casualty: every link out of its source is dark for
    # the whole of its 3-slot window.
    requests.append(TransferRequest(0, 1, 0.2, 3, release_slot=0))
    topology = ServiceConfig(datacenters=nodes, capacity=100.0).topology()
    schedule = LinkSchedule()
    window_rng = np.random.default_rng([109, 1])
    for link in topology.links:
        if link.src == 0:
            schedule.set_windows(link.src, link.dst, [(3, 8)])
        elif window_rng.random() < 0.3:
            phase = int(window_rng.integers(0, 8))
            schedule.set_windows(link.src, link.dst, [
                (max(start, 0), start + 5)
                for start in range(phase - 8, 64, 8) if start + 5 > 0
            ])

    scheduler = HybridScheduler(topology, 256, on_infeasible="drop")
    scheduler.state.link_schedule = schedule
    plan = scheduler.fast_lane.plan_slot(0, requests)
    assert plan.rejected  # the hybrid escalates the whole slot
    sets = scheduler.arc_sets(requests, plan)
    assert sets.count(None) == len(plan.rejected)
    pruned = build_postcard_model(
        scheduler.state, requests, arc_sets=sets
    )
    full = build_postcard_model(scheduler.state, requests)
    assert pruned.num_variables * 4 <= full.num_variables


# -- durability across a crash ------------------------------------------------

_DRIVE_CONFIG = dict(
    datacenters=5, capacity=30.0, seed=3, max_deadline=6, tick_seconds=0.0,
    checkpoint_every=3, wal=True, wal_fsync=False, telemetry=False,
)


def _drive(broker, slots=5):
    """Five slots of six paper-scale files; three of them escalate."""
    rng = np.random.default_rng(16)
    n = 0
    for _ in range(slots):
        for _ in range(6):
            src = int(rng.integers(0, 5))
            broker.submit({
                "id": f"p{n:03d}", "source": src,
                "destination": (src + int(rng.integers(1, 5))) % 5,
                "size_gb": round(float(rng.uniform(8.0, 28.0)), 3),
                "deadline_slots": int(rng.integers(2, 6)),
            })
            n += 1
        broker.process_slot()


def _books(broker):
    return {
        "next_slot": broker.next_slot,
        "cells": _cells(broker.state),
        "charged": {
            f"{a},{b}": v for (a, b), v in broker.state.charged_snapshot().items()
        },
        "decisions": {
            cid: [r["decision"], r["completion_slot"], r["lane"]]
            for cid, r in broker.decisions.items()
        },
    }


def test_new_lp_records_carry_their_arcs_and_replay_exactly(tmp_path):
    """A fresh crash/recover drill on this build's records: killed
    un-drained two slots past a snapshot, the resumed broker holds the
    cells of the one that never stopped.  Each commit carries the plan it
    committed (the LP's on the arcs it solved), and replay commits it
    without planning anything."""
    from unittest import mock

    from repro.heuristic.fastlane import FastLaneScheduler
    from repro.service.wal import scan_wal

    config = ServiceConfig(checkpoint_dir=str(tmp_path / "ckpt"), **_DRIVE_CONFIG)
    broker = TransferBroker(config)
    _drive(broker)
    broker.store.close()  # the "crash": no drain, no final snapshot
    expected = _books(broker)
    assert broker.stats()["lp_widened"] == broker.scheduler.lp_widened

    commits = [
        record
        for generation in broker.store.wal_generations()
        for record in scan_wal(broker.store.wal_path(generation)).records
        if record["type"] == "commit"
    ]
    lp = [r for r in commits if r.get("lane") == "lp"]
    assert lp and all(not r["plan"]["per_file"] for r in lp)  # the joint solve
    assert all(r["plan"]["per_file"] for r in commits if r.get("lane") == "fast")
    assert all("lp_arcs" not in r and "decisions" not in r for r in commits)

    planning = mock.Mock(side_effect=AssertionError("replay planned a slot"))
    with mock.patch.object(FastLaneScheduler, "plan_slot", planning), \
            mock.patch.object(PostcardScheduler, "plan_slot", planning):
        resumed = TransferBroker(config)
    resumed.store.close()
    assert resumed.resumed and resumed.verifier_report["ok"]
    assert _books(resumed) == expected
    assert {resumed.decisions[cid]["lane"] for r in lp for cid in r["batch"]} == {"lp"}
