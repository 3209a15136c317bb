"""The paper's worked examples, reproduced to the digit.

These tests pin the headline numbers of the paper's two illustrative
figures; if any formulation detail drifts, they fail loudly.
"""

import pytest

from repro.baselines import DirectScheduler
from repro.core import PostcardScheduler
from repro.flowbased import FlowBasedScheduler, VARIANT_TWO_PHASE
from repro.invariants import deadlines
from repro.net.generators import fig1_topology, fig3_topology
from repro.traffic import TransferRequest


class TestFig1:
    """6 MB from D2 to D3 within 15 minutes (3 slots)."""

    def request(self):
        return TransferRequest(2, 3, 6.0, 3, release_slot=0)

    def test_direct_costs_20_per_slot(self):
        scheduler = DirectScheduler(fig1_topology(), horizon=100)
        scheduler.on_slot(0, [self.request()])
        # Fig. 1(a): 2 MB per interval on the price-10 link.
        assert scheduler.state.current_cost_per_slot() == pytest.approx(20.0)

    def test_postcard_costs_12_per_slot(self):
        scheduler = PostcardScheduler(fig1_topology(), horizon=100)
        scheduler.on_slot(0, [self.request()])
        # Fig. 1(b): 3 MB peaks on the price-1 and price-3 links.
        assert scheduler.state.current_cost_per_slot() == pytest.approx(12.0)

    def test_postcard_uses_the_relay_path(self):
        scheduler = PostcardScheduler(fig1_topology(), horizon=100)
        schedule = scheduler.on_slot(0, [self.request()])
        links_used = {(e.src, e.dst) for e in schedule.entries}
        assert links_used == {(2, 1), (1, 3)}

    def test_deadline_met(self):
        scheduler = PostcardScheduler(fig1_topology(), horizon=100)
        request = self.request()
        scheduler.on_slot(0, [request])
        assert deadlines(scheduler.state.completions, {request.request_id: 2}) == []


class TestFig3:
    """File 1 = (2->4, 8 GB, T=4), File 2 = (1->4, 10 GB, T=2) at t=3."""

    def files(self):
        return [
            TransferRequest(2, 4, 8.0, 4, release_slot=3),
            TransferRequest(1, 4, 10.0, 2, release_slot=3),
        ]

    def test_postcard_costs_32_67(self):
        scheduler = PostcardScheduler(fig3_topology(), horizon=100)
        scheduler.on_slot(3, self.files())
        assert scheduler.state.current_cost_per_slot() == pytest.approx(98.0 / 3.0)

    def test_flow_based_costs_50(self):
        scheduler = FlowBasedScheduler(fig3_topology(), horizon=100)
        scheduler.on_slot(3, self.files())
        assert scheduler.state.current_cost_per_slot() == pytest.approx(50.0)

    def test_two_phase_matches_lp_here(self):
        scheduler = FlowBasedScheduler(
            fig3_topology(), horizon=100, variant=VARIANT_TWO_PHASE
        )
        scheduler.on_slot(3, self.files())
        assert scheduler.state.current_cost_per_slot() == pytest.approx(50.0)

    def test_direct_costs_52(self):
        scheduler = DirectScheduler(fig3_topology(), horizon=100)
        scheduler.on_slot(3, self.files())
        assert scheduler.state.current_cost_per_slot() == pytest.approx(52.0)

    def test_postcard_stores_at_intermediate_node(self):
        scheduler = PostcardScheduler(fig3_topology(), horizon=100)
        schedule = scheduler.on_slot(3, self.files())
        # The optimum stores part of File 1 (at DC 2 and/or DC 1) to
        # ride link (1,4) after File 2 vacates it.
        assert schedule.total_storage_volume() > 0
        file1, file2 = self.files()
        # File 2 saturates the direct cheap link in both its slots.
        volumes = schedule.link_slot_volumes()
        assert volumes.get((1, 4, 3), 0.0) == pytest.approx(5.0)
        assert volumes.get((1, 4, 4), 0.0) == pytest.approx(5.0)

    def test_deadlines_met(self):
        scheduler = PostcardScheduler(fig3_topology(), horizon=100)
        files = self.files()
        scheduler.on_slot(3, files)
        due = {request.request_id: request.last_slot for request in files}
        assert deadlines(scheduler.state.completions, due) == []

    def test_ordering_postcard_beats_flow_beats_direct(self):
        post = PostcardScheduler(fig3_topology(), horizon=100)
        post.on_slot(3, self.files())
        flow = FlowBasedScheduler(fig3_topology(), horizon=100)
        flow.on_slot(3, self.files())
        direct = DirectScheduler(fig3_topology(), horizon=100)
        direct.on_slot(3, self.files())
        assert (
            post.state.current_cost_per_slot()
            < flow.state.current_cost_per_slot()
            < direct.state.current_cost_per_slot()
        )
