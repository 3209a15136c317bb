"""Unit tests for soft-deadline (priced lateness) scheduling."""

import pytest

from repro.errors import InfeasibleError, SchedulingError
from repro.core import build_postcard_model, solve_soft_deadline
from repro.core.state import NetworkState
from repro.net.generators import fig3_topology, line_topology
from repro.traffic import TransferRequest


def test_validation(line3):
    state = NetworkState(line3, horizon=10)
    with pytest.raises(SchedulingError):
        solve_soft_deadline(state, [])
    request = TransferRequest(0, 1, 1.0, 2, release_slot=0)
    with pytest.raises(SchedulingError):
        solve_soft_deadline(state, [request], extension=-1)
    with pytest.raises(SchedulingError):
        solve_soft_deadline(state, [request], lateness_penalty=-1.0)


def test_zero_extension_matches_hard_lp(fig3, fig3_files):
    state = NetworkState(fig3, horizon=100)
    result = solve_soft_deadline(state, fig3_files, extension=0)
    assert result.solution.objective == pytest.approx(98.0 / 3.0)
    assert result.total_lateness == 0.0
    result.schedule.validate(fig3_files)


def test_feasible_instance_stays_on_time(line3):
    state = NetworkState(line3, horizon=20)
    request = TransferRequest(0, 1, 8.0, 4, release_slot=0)
    result = solve_soft_deadline(state, [request], extension=3, lateness_penalty=50.0)
    assert result.lateness[request.request_id] == pytest.approx(0.0)
    result.schedule.validate([request])


def test_overload_goes_late_instead_of_infeasible(line3):
    """20 GB through a 10/slot link with a 1-slot deadline: hard
    deadlines are infeasible, the soft model delivers one slot late."""
    state = NetworkState(line3, horizon=20)
    request = TransferRequest(0, 1, 20.0, 1, release_slot=0)
    with pytest.raises(InfeasibleError):
        build_postcard_model(state, [request]).solve()

    result = solve_soft_deadline(state, [request], extension=2, lateness_penalty=1.0)
    assert result.schedule.delivered_volume(request) == pytest.approx(20.0)
    assert result.lateness[request.request_id] > 0
    result.schedule.validate([request], deadline_slack=2)
    with pytest.raises(SchedulingError):
        result.schedule.validate([request])  # strict audit still catches it


def test_penalty_price_steers_lateness(line3):
    """A cheap penalty tolerates lateness to flatten peaks; a steep
    one forces on-time delivery at higher WAN cost."""
    def run(penalty):
        state = NetworkState(line3, horizon=20)
        request = TransferRequest(0, 1, 12.0, 2, release_slot=0)
        result = solve_soft_deadline(
            state, [request], extension=4, lateness_penalty=penalty
        )
        return result.lateness[request.request_id]

    # 12 GB in 2 slots = peak 6; spreading over 6 slots = peak 2, but
    # 4 slots of it are late.
    assert run(0.01) > run(100.0) - 1e-9
    assert run(100.0) == pytest.approx(0.0)


def test_soft_with_zero_extension_equals_hard_on_random_instances():
    from hypothesis import assume, given, settings, strategies as st
    from repro.net.generators import complete_topology

    @st.composite
    def instances(draw):
        num_dcs = draw(st.integers(3, 5))
        seed = draw(st.integers(0, 20))
        count = draw(st.integers(1, 3))
        requests = []
        for _ in range(count):
            src = draw(st.integers(0, num_dcs - 1))
            dst = draw(st.integers(0, num_dcs - 1))
            if dst == src:
                dst = (src + 1) % num_dcs
            size = draw(st.integers(2, 25))
            deadline = draw(st.integers(2, 4))
            requests.append(
                TransferRequest(src, dst, float(size), deadline, release_slot=0)
            )
        return num_dcs, seed, requests

    @settings(max_examples=15, deadline=None)
    @given(instances())
    def check(instance):
        num_dcs, seed, requests = instance
        topo = complete_topology(num_dcs, capacity=25.0, seed=seed)
        hard_state = NetworkState(topo, horizon=20)
        try:
            _, hard = build_postcard_model(hard_state, requests).solve()
        except InfeasibleError:
            assume(False)
            return
        soft_state = NetworkState(topo, horizon=20)
        result = solve_soft_deadline(soft_state, requests, extension=0)
        assert result.solution.objective == pytest.approx(
            hard.objective, rel=1e-6, abs=1e-6
        )
        assert result.total_lateness == 0.0

    check()


def test_lateness_accounting_matches_schedule(line3):
    state = NetworkState(line3, horizon=20)
    request = TransferRequest(0, 1, 20.0, 1, release_slot=0)
    result = solve_soft_deadline(state, [request], extension=2, lateness_penalty=0.5)
    # Recompute lateness from the schedule itself.
    expected = 0.0
    for e in result.schedule.entries:
        if e.dst == request.destination:
            late = max(0, e.slot + 1 - (request.release_slot + request.deadline_slots))
            expected += late * e.volume
    assert result.lateness[request.request_id] == pytest.approx(expected)
