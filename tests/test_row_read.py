"""The row read answers what the per-cell reads answer, bit for bit.

The fast lane composes each touched link's window rows once per batch
from :meth:`repro.core.state.NetworkState.link_rows` and
:meth:`repro.forecast.provider.ForecastProvider.reservation_row`, instead
of asking ``residual_capacity``, ``committed_volume`` and ``reservation``
once per cell.  On generated states — a link schedule, visible and
surprise outages, over-committed cells and a zero-capacity link — every
cell of the rows must be what the per-cell reads give, and what the
one-cell chain of ``tests/tracker_reference.py`` gives, as exact bits.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import NetworkState
from repro.forecast.provider import ForecastConfig, ForecastProvider
from repro.heuristic.tracker import UtilizationTracker
from repro.net.generators import complete_topology
from repro.net.schedule import AvailabilityWindow, LinkSchedule
from repro.sim.faults import FaultModel, Outage
from tests.tracker_reference import ScalarTracker

#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "10"))

SLOTS = 14


def _bits(values):
    return [value.hex() for value in values]


@st.composite
def states(draw):
    """A 3- or 4-DC state with history, gates, one link of capacity 0
    and a trained forecast; plus the slot the forecast stands at."""
    topology = complete_topology(draw(st.integers(3, 4)), capacity=10.0,
                                 seed=draw(st.integers(0, 50)))
    links = sorted(link.key for link in topology.links)
    # Link refuses a capacity of 0 when built; the rows must still answer
    # for one (LinkRows.utilization has its branch).
    object.__setattr__(topology.link(*draw(st.sampled_from(links))), "capacity", 0.0)
    state = NetworkState(topology, horizon=60)
    volume = st.floats(0.01, 15.0, allow_nan=False)  # past capacity too
    for key in links:
        for slot in draw(st.sets(st.integers(0, SLOTS - 1), max_size=6)):
            state.ledger.record(*key, slot, draw(volume))
        state._charged[key] = draw(st.floats(0.0, 12.0, allow_nan=False))
    if draw(st.booleans()):
        schedule = LinkSchedule()
        for key in draw(st.sets(st.sampled_from(links), max_size=3)):
            schedule.schedule_link(*key)  # windowless until a span lands
            for start in draw(st.lists(st.integers(0, SLOTS), max_size=2)):
                schedule.add_window(
                    AvailabilityWindow(*key, start, start + draw(st.integers(1, 4)))
                )
        state.link_schedule = schedule
    outages = [
        Outage(*key, start, start + draw(st.integers(1, 3)), announced=draw(st.booleans()))
        for key, start in draw(st.lists(
            st.tuples(st.sampled_from(links), st.integers(0, SLOTS)), max_size=3,
        ))
    ]
    if outages:
        state.fault_model = FaultModel(outages)
    provider = ForecastProvider(ForecastConfig(period=2, horizon=6))
    provider.bind(state)
    now = draw(st.integers(2, 8))
    for slot in range(now):
        provider.begin_slot(slot)
        provider.observe_slot(slot, [])
    provider.begin_slot(now)
    return state, links, provider, now


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(case=states(), start=st.integers(0, SLOTS), width=st.integers(0, 8))
def test_the_row_read_answers_what_each_cell_answers(case, start, width):
    state, links, provider, _ = case
    end = start + width
    for src, dst in links:
        residual, committed = state.link_rows(src, dst, start, end)
        slots = range(start, end)
        assert _bits(residual) == _bits(
            state.residual_capacity(src, dst, n) for n in slots
        )
        assert _bits(committed) == _bits(
            state.committed_volume(src, dst, n) for n in slots
        )
        assert _bits(provider.reservation_row(src, dst, start, committed)) == _bits(
            provider.reservation(src, dst, n) for n in slots
        )


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(case=states(), width=st.integers(1, 6), beyond=st.integers(0, 3),
       forecast=st.booleans())
def test_the_tracker_rows_answer_what_each_cell_answers(case, width, beyond, forecast):
    """Rows composed for a batch window, then widened past it, read the
    per-cell answers; every room view and utilization equals the one-cell
    chain of the reference tracker."""
    state, links, provider, now = case
    tracker = UtilizationTracker(state)
    oracle = ScalarTracker(state)
    if forecast:
        tracker.reservation = provider.reservation_row
        oracle.reservation = lambda src, dst, start, committed: [
            provider.reservation(src, dst, start + i) for i in range(len(committed))
        ]
    last = now + width - 1
    tracker.reset(now, last)
    oracle.reset(now, last)
    for src, dst in links:
        assert len(tracker.rows(src, dst, now).pending) == width
    for src, dst in links:
        rows = tracker.path_rows([src, dst], last + beyond)[0]
        assert rows is tracker.rows(src, dst, last + beyond)
        slots = range(now, last + beyond + 1)
        assert len(rows.pending) == len(slots)
        assert _bits(rows.residual) == _bits(
            state.residual_capacity(src, dst, n) for n in slots
        )
        assert _bits(rows.committed) == _bits(
            state.committed_volume(src, dst, n) for n in slots
        )
        if forecast:
            assert _bits(rows.reserved) == _bits(
                provider.reservation(src, dst, n) for n in slots
            )
        else:
            assert rows.reserved is None
        for i, slot in enumerate(slots):
            assert oracle.residual(src, dst, slot) == rows.room(i, False, False)
            assert oracle.headroom(src, dst, slot) == rows.room(i, True, False)
            if forecast:
                assert oracle.forecast_residual(src, dst, slot) == rows.room(i, False, True)
                assert oracle.forecast_headroom(src, dst, slot) == rows.room(i, True, True)
            assert oracle.utilization(src, dst, slot) == rows.utilization(i)
