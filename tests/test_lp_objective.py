"""The hybrid LP lane's tie-break and the presolve rule it allows.

The paper's per-slot LP minimises the bill and says nothing about ties.
The hybrid's LP lane adds a transit price ``ε`` (1e-4 of the cheapest
link's price) per GB-hop, which picks, among the bill's optima, one that
moves the fewest hop-GB; with the optimum chosen on purpose, its
path-pruned solve runs without HiGHS's presolve.  The contract:

* the ``ε`` solve's bill is within ``ε · hop-GB(x*)`` of the plain
  optimum ``z*`` — with presolve on and with presolve off;
* through the lane, ``full <= pruned <= fast lane`` on the bill still
  holds, with slack ``ε · hop-GB`` of the fast lane's plan;
* only the pruned attempt in the dual simplex regime skips presolve: the
  widened model, every shedding solve and a model past the backend's
  interior-point switch keep it, and a slot the lane does not prune at
  all is the paper's model, tie-break and presolve alike;
* WAL commit records carry the plan the objective picked, and a killed
  broker's resume lands on the same books.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.scheduler as lane_module
from repro.core import build_postcard_model
from repro.heuristic import HybridScheduler
from repro.lp.backends.highs import HighsBackend
from repro.net.generators import complete_topology
from repro.net.schedule import LinkSchedule
from repro.service.config import ServiceConfig
from repro.service.slotloop import TransferBroker
from repro.service.wal import scan_wal
from repro.traffic.spec import TransferRequest
from tests.test_lp_arcs import (
    _DRIVE_CONFIG,
    _arc_sets,
    _batch,
    _books,
    _detour_topology,
    _drive,
    _saturate_known_paths,
)
from tests.schedule_reference import preview_cost

#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "10"))


def _pressure_batch(rng, slot, files=40):
    """``lp_pressure``'s shape: 10 DCs, files of 10-60 GB, deadlines 2-6."""
    source = rng.integers(0, 10, files)
    destination = (source + rng.integers(1, 10, files)) % 10
    sizes, deadlines = rng.uniform(10.0, 60.0, files), rng.integers(2, 7, files)
    return [
        TransferRequest(int(s), int(d), round(float(size), 6), int(t), release_slot=slot)
        for s, d, size, t in zip(source, destination, sizes, deadlines)
    ]


@pytest.fixture(scope="module")
def pressure_stream():
    """A hybrid after four slots of an ``lp_pressure``-shaped stream
    (capacity 100, 40 files per slot), and the models its lane built."""
    built = []
    build = lane_module.build_postcard_model

    def record(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    scheduler = HybridScheduler(ServiceConfig(datacenters=10, capacity=100.0).topology(), 64)
    rng = np.random.default_rng(2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lane_module, "build_postcard_model", record)
        for slot in range(4):
            scheduler.on_slot(slot, _pressure_batch(rng, slot))
    return scheduler, built


def _without_tie_break(built):
    """The built problem with the plain objective, and its transit mask."""
    problem = built.model
    transit = np.zeros(problem.num_variables, dtype=bool)
    transit[:len(built.flow_columns[4])] = built.flow_columns[4]
    return dataclasses.replace(problem, c=np.where(transit, 0.0, problem.c)), transit


# -- what the tie-break may cost ---------------------------------------------


@pytest.mark.parametrize("presolve", ["on", "off"])
def test_the_tie_break_gives_up_at_most_its_price(pressure_stream, presolve):
    """``bill(x_ε) <= z* + ε · hop-GB(x*)``: the ε solve minimises
    ``bill + ε · hop-GB``, and ``x*`` is a point it could have taken.  So
    it also moves no more hop-GB than ``x*``, and the objective it reports
    is the bill, not the bill plus the tie-break."""
    lane_models = pressure_stream[1]
    assert len(lane_models) == 3  # slots 1-3 escalate
    for built in lane_models:
        epsilon = built.transit_price
        assert epsilon == pytest.approx(1.0246e-4, rel=1e-4)
        plain, transit = _without_tie_break(built)
        reference = HighsBackend().solve(plain)
        z, hops = reference.objective, reference.x[transit].sum()
        _, chosen = built.solve(presolve=presolve)
        bill = plain.c @ chosen.x + plain.c0
        assert bill <= z + epsilon * hops + 1e-9 * z
        assert chosen.x[transit].sum() <= hops + 1e-9 * z / epsilon
        assert chosen.objective == pytest.approx(bill, rel=1e-12)


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(4, 6),
    files=st.integers(1, 8),
    warm_slots=st.integers(0, 2),
    windows=st.booleans(),
)
def test_through_the_lane_full_le_pruned_le_fast_lane(seed, nodes, files, warm_slots, windows):
    """What the fast lane fully admits, the lane's pruned ε solve places
    at a bill between the full plain LP's and the fast lane's plus
    ``ε`` per hop-GB of the fast plan — on a loaded ledger, with and
    without dark windows."""
    topology = complete_topology(nodes, capacity=20.0, seed=seed)
    scheduler = HybridScheduler(topology, 60, num_candidate_paths=2, on_infeasible="drop")
    state, lane = scheduler.state, scheduler.lp_lane
    rng = np.random.default_rng(seed)
    if windows:
        schedule = LinkSchedule()
        for link in topology.links:
            if rng.random() < 0.4:
                phase = int(rng.integers(0, 4))
                schedule.set_windows(
                    link.src, link.dst, [(start, start + 2) for start in range(phase, 40, 4)]
                )
        state.link_schedule = schedule
    for slot in range(warm_slots):
        scheduler.on_slot(slot, _batch(rng, nodes, slot, 4, (2.0, 12.0), (1, 5)))

    slot = warm_slots
    requests = _batch(rng, nodes, slot, files, (1.0, 15.0), (1, 6))
    plan = scheduler.fast_lane.plan_slot(slot, requests)
    assume(not plan.rejected)
    entries = plan.schedule.entries
    fast_cost = preview_cost(state, plan.schedule)
    fast_hops = sum(e.volume for e in entries)

    widened = lane.widened
    placed = lane.plan_slot(slot, requests, scheduler.arc_sets(requests, plan),
                            scheduler.transit_price)
    assert lane.widened == widened and not placed.rejected
    _, full = build_postcard_model(state, requests).solve()
    slack = 1e-6 * max(1.0, fast_cost)
    assert full.objective <= lane.last_objective + slack
    assert lane.last_objective <= fast_cost + scheduler.transit_price * fast_hops + slack
    lane.commit_plan(placed)  # TransferSchedule.validate inside
    assert all(r.request_id in state.completions for r in requests)


# -- where presolve stays on ---------------------------------------------------


ON, OFF = {"presolve": "on"}, {"presolve": "off"}


def _options_seen(monkeypatch):
    seen = []
    solve = HighsBackend.solve

    def record(self, model, **options):
        seen.append(options)
        return solve(self, model, **options)

    monkeypatch.setattr(HighsBackend, "solve", record)
    return seen


def test_widened_and_shedding_solves_keep_presolve(monkeypatch):
    seen = _options_seen(monkeypatch)
    scheduler = HybridScheduler(
        _detour_topology(), 40, num_candidate_paths=1, on_infeasible="drop"
    )
    _saturate_known_paths(scheduler.state)
    lane, index = scheduler.lp_lane, scheduler.fast_lane._paths

    blocked = TransferRequest(0, 1, 8.0, 3, release_slot=0)
    lane.plan_slot(0, [blocked], _arc_sets(index, [blocked]), scheduler.transit_price)
    assert seen == [OFF, ON]  # the pruned attempt, then widened
    seen.clear()

    batch = [TransferRequest(0, 1, 80.0, 3, release_slot=0),
             TransferRequest(0, 2, 4.0, 2, release_slot=0)]
    shed = lane.plan_slot(0, batch, _arc_sets(index, batch), scheduler.transit_price)
    assert [r.request_id for r in shed.rejected] == [batch[0].request_id]
    assert seen == [OFF] + [ON] * 4  # widened, each alone, the rest

    seen.clear()  # without the tie-break the pruned attempt is the paper's solve
    lane.plan_slot(0, [blocked], _arc_sets(index, [blocked]))
    assert seen == [ON, ON]


def test_a_slot_with_nothing_pruned_is_the_papers_model(monkeypatch):
    """A 4-DC mesh has fewer than ``2 x num_candidate_paths`` paths per
    pair, so the index prunes nothing and an escalated slot is solved as
    the paper's model: no tie-break, presolve on.  Small meshes keep their
    bits, and with them ``scripts/bench_forecast.py``'s record."""
    seen, prices = _options_seen(monkeypatch), []
    build = lane_module.build_postcard_model

    def record(*args, **kwargs):
        prices.append(kwargs["transit_price"])
        return build(*args, **kwargs)

    monkeypatch.setattr(lane_module, "build_postcard_model", record)
    scheduler = HybridScheduler(complete_topology(4, capacity=10.0, seed=1), 60)
    rng = np.random.default_rng(1)
    for slot in range(3):
        scheduler.on_slot(slot, _batch(rng, 4, slot, 6, (4.0, 12.0), (2, 5)))
    assert scheduler.escalations and scheduler.transit_price > 0
    assert set(prices) == {0.0} and seen == [ON] * len(prices)


def test_a_model_past_the_interior_point_switch_keeps_presolve(pressure_stream, monkeypatch):
    from repro.lp.backends.highs import IPM_COLUMNS

    class Seen(Exception):
        pass

    def record(self, model, **options):
        raise Seen(model.num_variables, options)

    monkeypatch.setattr(HighsBackend, "solve", record)
    scheduler = pressure_stream[0]  # its index has searched every pair
    requests = _pressure_batch(np.random.default_rng(3), 4, files=500)
    sets = _arc_sets(scheduler.fast_lane._paths, requests)
    assert all(sets)
    with pytest.raises(Seen) as raised:  # before the solve: nothing commits
        scheduler.lp_lane.plan_slot(4, requests, sets, scheduler.transit_price)
    columns, options = raised.value.args
    assert columns > IPM_COLUMNS and options == ON


# -- durability across a crash ------------------------------------------------


def test_new_lp_records_name_their_objective_and_replay_exactly(tmp_path):
    config = ServiceConfig(checkpoint_dir=str(tmp_path / "ckpt"), **_DRIVE_CONFIG)
    broker = TransferBroker(config)
    _drive(broker)
    broker.store.close()  # the "crash": no drain, no final snapshot
    expected = _books(broker)

    commits = [
        record
        for generation in broker.store.wal_generations()
        for record in scan_wal(broker.store.wal_path(generation)).records
        if record["type"] == "commit"
    ]
    lp = [r for r in commits if r.get("lane") == "lp"]
    assert lp and all("plan" in r for r in lp)  # the objective's pick, as committed
    assert all("lp_objective" not in r for r in commits)

    resumed = TransferBroker(config)
    resumed.store.close()
    assert resumed.resumed and resumed.verifier_report["ok"]
    assert _books(resumed) == expected
