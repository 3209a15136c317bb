"""Unit tests for storage capacity, storage pricing and PWL costs in
the Postcard formulation."""

import pytest

from repro.errors import InfeasibleError, SchedulingError
from repro.charging import LinearCost, PiecewiseLinearCost
from repro.core import PostcardScheduler, build_postcard_model
from repro.core.state import NetworkState
from repro.net.generators import fig1_topology, fig3_topology, line_topology
from repro.traffic import TransferRequest
from tests.schedule_reference import storage_slot_volumes


def fig3_files(release=0):
    return [
        TransferRequest(2, 4, 8.0, 4, release_slot=release),
        TransferRequest(1, 4, 10.0, 2, release_slot=release),
    ]


class TestStoragePrice:
    def test_zero_price_is_paper_optimum(self):
        scheduler = PostcardScheduler(fig3_topology(), horizon=100, storage_price=0.0)
        scheduler.on_slot(0, fig3_files())
        assert scheduler.state.current_cost_per_slot() == pytest.approx(98.0 / 3.0)

    def test_price_discourages_storage(self):
        # With prohibitively expensive buffering, the Fig. 3 optimum
        # cannot afford to park File 1 and falls back to pricier links.
        cheap = PostcardScheduler(fig3_topology(), horizon=100, storage_price=0.0)
        cheap.on_slot(0, fig3_files())
        pricey = PostcardScheduler(fig3_topology(), horizon=100, storage_price=100.0)
        pricey.on_slot(0, fig3_files())
        assert pricey.state.storage_used < cheap.state.storage_used
        # WAN bill alone can only be worse without (much) storage.
        assert (
            pricey.state.current_cost_per_slot()
            >= cheap.state.current_cost_per_slot() - 1e-9
        )

    def test_small_price_keeps_storage_but_charges_objective(self):
        state = NetworkState(fig3_topology(), horizon=100)
        files = fig3_files()
        built = build_postcard_model(state, files, storage_price=0.01)
        schedule, solution = built.solve()
        # Objective = WAN charges + metered storage; data parked at its
        # own destination is delivered and is not billed for storage.
        state.commit(schedule, built.requests)
        wan = state.current_cost_per_slot()
        billable = sum(storage_slot_volumes(schedule, files).values())
        assert solution.objective == pytest.approx(wan + 0.01 * billable, rel=1e-6)

    def test_negative_price_rejected(self):
        state = NetworkState(fig3_topology(), horizon=10)
        with pytest.raises(SchedulingError):
            build_postcard_model(state, fig3_files(), storage_price=-1.0)


class TestStorageCapacity:
    def test_unlimited_matches_default(self):
        a = PostcardScheduler(fig3_topology(), horizon=100)
        a.on_slot(0, fig3_files())
        b = PostcardScheduler(
            fig3_topology(), horizon=100, storage_capacity=float("inf")
        )
        b.on_slot(0, fig3_files())
        assert a.state.current_cost_per_slot() == pytest.approx(
            b.state.current_cost_per_slot()
        )

    def test_tight_buffer_raises_cost(self):
        # Fig. 3's optimum stores ~8/3 GB at a time; capping the buffer
        # below that forces a costlier plan.
        free = PostcardScheduler(fig3_topology(), horizon=100)
        free.on_slot(0, fig3_files())
        capped = PostcardScheduler(fig3_topology(), horizon=100, storage_capacity=1.0)
        capped.on_slot(0, fig3_files())
        assert (
            capped.state.current_cost_per_slot()
            >= free.state.current_cost_per_slot() - 1e-9
        )

    def test_capacity_constrains_committed_storage(self):
        state = NetworkState(fig3_topology(), horizon=100)
        built = build_postcard_model(state, fig3_files(), storage_capacity=1.0)
        schedule, _ = built.solve()
        waits = storage_slot_volumes(schedule, built.requests)
        assert waits  # the optimum still parks data, within the buffer
        for (node, slot), volume in waits.items():
            assert volume <= 1.0 + 1e-6

    def test_zero_capacity_still_delivers_via_destination_exemption(self):
        # 2-hop transfer with slack: data may never park anywhere
        # except (for free) at its destination.
        topo = line_topology(3, capacity=10.0)
        state = NetworkState(topo, horizon=20)
        request = TransferRequest(0, 2, 6.0, 4, release_slot=0)
        built = build_postcard_model(state, [request], storage_capacity=0.0)
        schedule, _ = built.solve()
        assert schedule.delivered_volume(request) == pytest.approx(6.0)
        assert storage_slot_volumes(schedule, [request]) == {}

    def test_negative_capacity_rejected(self):
        state = NetworkState(fig3_topology(), horizon=10)
        with pytest.raises(SchedulingError):
            build_postcard_model(state, fig3_files(), storage_capacity=-1.0)


class TestCostFnFactory:
    def test_linear_factory_matches_default(self):
        state_a = NetworkState(fig3_topology(), horizon=100)
        built_a = build_postcard_model(state_a, fig3_files())
        _, sol_a = built_a.solve()

        state_b = NetworkState(fig3_topology(), horizon=100)
        built_b = build_postcard_model(
            state_b, fig3_files(), cost_fn_factory=lambda l: LinearCost(l.price)
        )
        _, sol_b = built_b.solve()
        assert sol_a.objective == pytest.approx(sol_b.objective, rel=1e-6)

    def test_convex_pwl_penalizes_peaks(self):
        # Cost doubles beyond 3 GB/slot: the optimizer flattens peaks
        # below the knee where possible.
        topo = line_topology(2, capacity=10.0)
        state = NetworkState(topo, horizon=20)
        request = TransferRequest(0, 1, 12.0, 4, release_slot=0)

        def factory(link):
            return PiecewiseLinearCost([(0, 0), (3, 3), (10, 17)])

        built = build_postcard_model(state, [request], cost_fn_factory=factory)
        schedule, solution = built.solve()
        peaks = schedule.link_slot_volumes()
        assert max(peaks.values()) == pytest.approx(3.0)
        assert solution.objective == pytest.approx(3.0)

    def test_concave_pwl_rejected(self):
        topo = line_topology(2, capacity=10.0)
        state = NetworkState(topo, horizon=20)
        request = TransferRequest(0, 1, 12.0, 4, release_slot=0)

        def factory(link):
            return PiecewiseLinearCost([(0, 0), (3, 9), (10, 10)])  # discount

        with pytest.raises(SchedulingError, match="convex"):
            build_postcard_model(state, [request], cost_fn_factory=factory).solve()

    def test_unsupported_cost_type_rejected(self):
        topo = line_topology(2, capacity=10.0)
        state = NetworkState(topo, horizon=20)
        request = TransferRequest(0, 1, 2.0, 2, release_slot=0)

        class Weird:
            def __call__(self, v):
                return v * v

        with pytest.raises(SchedulingError, match="unsupported"):
            build_postcard_model(
                state, [request], cost_fn_factory=lambda l: Weird()
            )

    def test_fixed_links_billed_through_factory(self):
        # A committed link outside the new file's window uses the
        # factory's function for its standing charge too.
        topo = line_topology(4, capacity=10.0)
        state = NetworkState(topo, horizon=40)
        r0 = TransferRequest(2, 3, 4.0, 1, release_slot=0)
        built0 = build_postcard_model(state, [r0])
        s0, _ = built0.solve()
        state.commit(s0, [r0])

        def factory(link):
            return LinearCost(link.price * 10)

        r1 = TransferRequest(0, 1, 2.0, 1, release_slot=8)
        _, solution = build_postcard_model(
            state, [r1], cost_fn_factory=factory
        ).solve()
        # Standing charge 4 on (2,3) at 10x price + new 2 at 10x price.
        assert solution.objective == pytest.approx(40.0 + 20.0)
