"""The slot contract of every registered scheduler.

A slot is one online step: :meth:`Scheduler.plan_slot` decides it
without touching the books, :meth:`Scheduler.commit_plan` lands the plan
once, and :meth:`Scheduler.on_slot` is exactly that pair — so a slot that
raises under ``on_infeasible="raise"`` leaves the books as they were.
The books are :func:`~repro.core.checkpoint.state_to_payload`: ledger
cells, charged peaks, completions, rejections and storage.
"""

from __future__ import annotations

import importlib

import pytest

from repro import registry
from repro.core.checkpoint import state_to_payload
from repro.errors import InfeasibleError, SolverError
from repro.net.generators import complete_topology
from repro.traffic.spec import TransferRequest

TOPOLOGY = complete_topology(3, capacity=10.0, seed=1)
HORIZON = 20
NAMES = registry.scheduler_names()

#: Slot 0 fits everywhere; slot 1 adds a file no cut can carry in time
#: (1,000 GB in 2 slots from a source with 20 GB of links per slot).
WARM = [
    TransferRequest(0, 1, 6.0, 2, release_slot=0),
    TransferRequest(2, 0, 9.0, 3, release_slot=0),
]
SLOT_1 = [
    TransferRequest(0, 2, 8.0, 3, release_slot=1),
    TransferRequest(1, 0, 1000.0, 2, release_slot=1),
    TransferRequest(2, 1, 7.0, 4, release_slot=1),
]


def _warm(name, policy="drop", **kwargs):
    """``name`` from the registry under ``policy`` (and the factory's
    ``kwargs``), slot 0 committed."""
    def build(path, topology, horizon, **kwargs):
        module, _, cls = path.partition(":")
        scheduler = getattr(importlib.import_module(module), cls)
        return scheduler(topology, horizon, on_infeasible=policy, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "_build", build)
        scheduler = registry.make_scheduler(name, TOPOLOGY, HORIZON, **kwargs)
    scheduler.on_slot(0, WARM)
    assert scheduler.state.ledger.used_links()
    return scheduler


@pytest.mark.parametrize("name", NAMES)
def test_plan_slot_leaves_the_books_as_they_were(name):
    scheduler = _warm(name)
    before = state_to_payload(scheduler.state)
    plan = scheduler.plan_slot(1, SLOT_1)
    assert plan.accepted and plan.rejected
    assert state_to_payload(scheduler.state) == before


@pytest.mark.parametrize("name", NAMES)
def test_a_slot_that_raises_commits_nothing(name):
    scheduler = _warm(name, policy="raise")
    before = state_to_payload(scheduler.state)
    with pytest.raises(InfeasibleError):
        scheduler.on_slot(1, SLOT_1)
    assert state_to_payload(scheduler.state) == before


def _solver_down():
    raise SolverError("backend 'highs' failed: numerical difficulties")


#: The hybrid decides a slot in one function, so a watched LP and a
#: failing one give ``plan_slot`` the lane ``on_slot`` takes.
HYBRID_LANES = {
    "hybrid-watchdog": ({"watchdog_timeout_s": 5.0}, "lp"),
    "hybrid-solver-error": ({"escalate_hook": _solver_down}, "degraded"),
}


@pytest.mark.parametrize("case", NAMES + sorted(HYBRID_LANES))
def test_on_slot_is_commit_plan_of_plan_slot(case):
    options, lane = HYBRID_LANES.get(case, ({}, None))
    name = "hybrid" if lane else case
    live, staged = _warm(name, **options), _warm(name, **options)
    schedule = live.on_slot(1, SLOT_1)
    committed = staged.commit_plan(staged.plan_slot(1, SLOT_1))
    assert schedule.entries == committed.entries
    assert schedule.stored == committed.stored
    assert state_to_payload(live.state) == state_to_payload(staged.state)
    assert live.state.rejected
    tallies = [(s.last_lane, getattr(s, "escalations", 0), getattr(s, "degraded", 0))
               for s in (live, staged)]
    assert tallies[0] == tallies[1]
    if lane:
        assert tallies[0] == (lane, 1, int(lane == "degraded"))
    # An idle slot is the same pair.
    schedule = live.on_slot(2, [])
    committed = staged.commit_plan(staged.plan_slot(2, []))
    assert (schedule.entries, schedule.stored) == (committed.entries, committed.stored)
    assert state_to_payload(live.state) == state_to_payload(staged.state)


def _tallies(scheduler):
    """The scheduler's own scalar counters and its lane."""
    return {key: value for key, value in vars(scheduler).items()
            if isinstance(value, (int, float, str))} | {"last_lane": scheduler.last_lane}


@pytest.mark.parametrize("name", NAMES)
def test_an_idle_slot_changes_nothing_but_the_replanners_files_in_flight(name):
    """Every slot runs ``plan_slot``, an idle one too; only the replanner,
    whose active files move on, has anything to do there."""
    import repro.obs as obs

    scheduler = _warm(name)
    before, tallies = state_to_payload(scheduler.state), _tallies(scheduler)
    with obs.collecting() as fold:
        scheduler.on_slot(1, [])
    moved = state_to_payload(scheduler.state) != before
    assert moved == (name == "postcard-replan")
    if name != "postcard-replan":
        assert fold.num_events == 0
        assert _tallies(scheduler) == tallies
