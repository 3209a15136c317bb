"""Unit + property tests for the subgradient dual lower bound."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import InfeasibleError, SchedulingError
from repro.core import build_postcard_model
from repro.core.bounds import FileRoutes, dual_lower_bound
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.net.generators import complete_topology, fig1_topology, fig3_topology
from repro.traffic import TransferRequest


def _priced_routes(topology, request):
    """The request's one-file model, its routes, and each flow column
    priced at its link's price (holdover free)."""
    model = build_postcard_model(NetworkState(topology, horizon=10), [request])
    _, src, dst, _, transit = model.flow_columns
    prices = np.array([
        topology.link(a, b).price if moves else 0.0
        for a, b, moves in zip(src.tolist(), dst.tolist(), transit.tolist())
    ])
    return model, FileRoutes(topology, model), prices


class TestShortestPathOverTime:
    """The per-file layered DP over a built model's flow columns."""

    def test_fig1_relay_path(self):
        request = TransferRequest(2, 3, 6.0, 3, release_slot=0)
        model, routes, prices = _priced_routes(fig1_topology(), request)
        (cost,), volumes = routes.cheapest(prices)
        # Cheapest per-GB route: 2 -> 1 -> 3 at 1 + 3 = 4.
        assert cost == pytest.approx(4.0)
        _, src, dst, slot, transit = model.flow_columns
        moved = np.flatnonzero((volumes > 0) & transit)
        assert [(src[i], dst[i]) for i in moved[np.argsort(slot[moved])]] == [(2, 1), (1, 3)]
        assert set(volumes[volumes > 0]) == {6.0}

    def test_deadline_one_forces_direct(self):
        request = TransferRequest(2, 3, 6.0, 1, release_slot=0)
        _, routes, prices = _priced_routes(fig1_topology(), request)
        (cost,), _volumes = routes.cheapest(prices)
        assert cost == pytest.approx(10.0)  # no time for the relay

    def test_unreachable_raises(self, line3):
        request = TransferRequest(0, 2, 1.0, 1, release_slot=0)
        _, routes, prices = _priced_routes(line3, request)
        with pytest.raises(InfeasibleError):
            routes.cheapest(prices)


class TestDualLowerBound:
    def test_validation(self, fig3):
        state = NetworkState(fig3, horizon=10)
        with pytest.raises(SchedulingError):
            dual_lower_bound(state, [])
        with pytest.raises(SchedulingError):
            dual_lower_bound(
                state, [TransferRequest(1, 4, 1.0, 2)], iterations=0
            )

    def test_bound_below_lp_optimum_fig3(self, fig3, fig3_files):
        state = NetworkState(fig3, horizon=100)
        result = dual_lower_bound(state, fig3_files, iterations=200)
        # The LP optimum is 98/3; the bound must stay below it and
        # climb meaningfully above the trivial 0.
        assert result.lower_bound <= 98.0 / 3.0 + 1e-6
        assert result.lower_bound > 0.3 * (98.0 / 3.0)

    def test_bound_improves_over_trivial_iterate(self, fig3, fig3_files):
        state = NetworkState(fig3, horizon=100)
        result = dual_lower_bound(state, fig3_files, iterations=100)
        assert result.lower_bound >= result.trajectory[0] - 1e-9

    def test_standing_cost_included(self, fig3):
        # With traffic already paid, even the first iterate includes it.
        state = NetworkState(fig3, horizon=100)
        r0 = TransferRequest(1, 4, 5.0, 1, release_slot=0)
        state.commit(
            TransferSchedule([ScheduleEntry(r0.request_id, 1, 4, 0, 5.0)]), [r0]
        )
        standing = state.current_cost_per_slot()
        request = TransferRequest(2, 4, 4.0, 3, release_slot=2)
        result = dual_lower_bound(state, [request], iterations=50)
        assert result.lower_bound >= standing - 1e-9


@st.composite
def instances(draw):
    num_dcs = draw(st.integers(3, 5))
    capacity = draw(st.sampled_from([20.0, 50.0]))
    seed = draw(st.integers(0, 20))

    def ends():
        src = draw(st.integers(0, num_dcs - 1))
        dst = draw(st.integers(0, num_dcs - 1))
        return src, (src + 1) % num_dcs if dst == src else dst

    # Background already committed, one direct slot each: it lifts the
    # charged volumes and fills some cells before the files arrive.
    background = []
    for _ in range(draw(st.integers(0, 2))):
        src, dst = ends()
        size = draw(st.integers(1, int(capacity) // 2))
        background.append(TransferRequest(
            src, dst, float(size), 1, release_slot=draw(st.integers(0, 3))
        ))
    # Mixed release slots: the windows start apart, so some link-slots
    # of the span fall in no file's window.
    requests = []
    for _ in range(draw(st.integers(1, 3))):
        src, dst = ends()
        size = draw(st.integers(2, 30))
        deadline = draw(st.integers(2, 5))
        release = draw(st.integers(0, 3))
        requests.append(TransferRequest(src, dst, float(size), deadline, release_slot=release))
    return num_dcs, capacity, seed, background, requests


@settings(max_examples=15, deadline=None)
@given(instances())
def test_weak_duality_always_holds(instance):
    """The certified bound never exceeds the LP optimum — on any
    instance, any iteration count, with mixed release slots and
    committed background traffic."""
    num_dcs, capacity, seed, background, requests = instance
    topo = complete_topology(num_dcs, capacity=capacity, seed=seed)
    state = NetworkState(topo, horizon=30)
    for request in background:
        state.commit(TransferSchedule([ScheduleEntry(
            request.request_id, request.source, request.destination,
            request.release_slot, request.size_gb,
        )]), [request])
    try:
        _, solution = build_postcard_model(state, requests).solve()
    except InfeasibleError:
        assume(False)
        return
    result = dual_lower_bound(state, requests, iterations=60)
    assert result.lower_bound <= solution.objective + 1e-6
