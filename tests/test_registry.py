"""Unit tests for the scheduler registry."""

import pytest

from repro.errors import ReproError
from repro.core.interfaces import Scheduler
from repro.net.generators import line_topology
from repro.registry import (
    make_scheduler,
    scheduler_factory,
    scheduler_names,
)


def test_names_cover_all_families():
    names = scheduler_names()
    assert "postcard" in names
    assert "flow-based" in names
    assert "flow-2phase" in names
    assert "direct" in names
    assert "greedy" in names
    assert "q-aware" in names
    assert "postcard-replan" in names
    assert "postcard-no-storage" in names
    assert names == sorted(names)


@pytest.mark.parametrize("name", scheduler_names())
def test_every_factory_builds_a_scheduler(name, line3):
    """Each factory imports its scheduler's module when called."""
    scheduler = make_scheduler(name, line3, horizon=10)
    assert isinstance(scheduler, Scheduler)
    assert scheduler.state.topology is line3


def test_unknown_name_rejected(line3):
    with pytest.raises(ReproError, match="available"):
        make_scheduler("quantum", line3, 10)
    with pytest.raises(ReproError):
        scheduler_factory("quantum")


@pytest.mark.parametrize("name", ["direct", "greedy", "heuristic"])
def test_lp_free_factories_refuse_a_keyword_they_cannot_use(name, line3):
    """A watchdog asked of a scheduler that has none is an error, not a
    scheduler built without it."""
    with pytest.raises(TypeError, match="watchdog_timeout_s"):
        make_scheduler(name, line3, 10, watchdog_timeout_s=1.0)
