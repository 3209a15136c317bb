"""Unit tests for the traffic ledger."""

import numpy as np
import pytest

from repro.errors import ChargingError
from repro.charging import (
    LinearCost,
    MaxCharging,
    PercentileCharging,
    TrafficLedger,
)
from repro.net.generators import line_topology


@pytest.fixture
def ledger(line3):
    return TrafficLedger(line3, horizon=10)


def test_horizon_validated(line3):
    with pytest.raises(ChargingError):
        TrafficLedger(line3, horizon=0)


def test_record_and_query(ledger):
    ledger.record(0, 1, 3, 4.0)
    ledger.record(0, 1, 3, 2.0)
    assert ledger.volume(0, 1, 3) == 6.0
    assert ledger.volume(0, 1, 4) == 0.0
    assert ledger.peak_volume(0, 1) == 6.0


def test_record_returns_the_cells_new_level(ledger):
    # NetworkState.record_traffic raises X_ij from what record returns.
    assert ledger.record(0, 1, 3, 0.1) == 0.1
    assert ledger.record(0, 1, 3, 0.2) == 0.1 + 0.2 == ledger.volume(0, 1, 3)
    assert ledger.record(0, 1, 3, 0.0) == 0.1 + 0.2
    assert ledger.record(0, 1, 5, 0.0) == 0.0
    assert 5 not in ledger.usage(0, 1).volumes


def test_record_unknown_link(ledger):
    with pytest.raises(ChargingError):
        ledger.record(0, 2, 0, 1.0)


def test_record_negative_rejected(ledger):
    with pytest.raises(ChargingError):
        ledger.record(0, 1, 0, -1.0)
    with pytest.raises(ChargingError):
        ledger.record(0, 1, -1, 1.0)


def test_samples_padded_to_horizon(ledger):
    ledger.record(0, 1, 2, 5.0)
    samples = ledger.samples(0, 1)
    assert samples.shape == (10,)
    assert samples[2] == 5.0
    assert samples.sum() == 5.0


def test_traffic_beyond_horizon_not_billed(ledger):
    ledger.record(0, 1, 99, 7.0)  # next charging period
    assert ledger.charged_volume(0, 1) == 0.0
    assert ledger.peak_volume(0, 1) == 7.0  # but the peak tracker sees it


def test_residual_capacity(ledger):
    assert ledger.residual_capacity(0, 1, 0) == 10.0
    ledger.record(0, 1, 0, 4.0)
    assert ledger.residual_capacity(0, 1, 0) == 6.0
    ledger.record(0, 1, 0, 11.0)  # the ledger records, the audit flags
    assert ledger.residual_capacity(0, 1, 0) == 0.0


def test_charged_volume_schemes(ledger):
    for slot in range(9):
        ledger.record(0, 1, slot, 1.0)
    ledger.record(0, 1, 9, 100.0)
    assert ledger.charged_volume(0, 1, MaxCharging()) == 100.0
    assert ledger.charged_volume(0, 1, PercentileCharging(90)) == 1.0


def test_link_cost_uses_price_and_horizon(ledger):
    ledger.record(0, 1, 0, 5.0)
    # price 1.0, charged volume 5, horizon 10 slots.
    assert ledger.link_cost(0, 1) == pytest.approx(50.0)
    assert ledger.link_cost(0, 1, cost_fn=LinearCost(2.0)) == pytest.approx(100.0)


def test_total_cost_and_cost_per_slot(line3):
    ledger = TrafficLedger(line3, horizon=4)
    ledger.record(0, 1, 0, 3.0)
    ledger.record(1, 2, 1, 2.0)
    assert ledger.total_cost() == pytest.approx((3.0 + 2.0) * 4)
    assert ledger.cost_per_slot() == pytest.approx(5.0)


def test_total_cost_custom_factory(line3):
    ledger = TrafficLedger(line3, horizon=2)
    ledger.record(0, 1, 0, 3.0)
    total = ledger.total_cost(cost_fn_factory=lambda link: LinearCost(10.0))
    assert total == pytest.approx(60.0)


def test_charged_snapshot(ledger):
    ledger.record(0, 1, 0, 3.0)
    snap = ledger.charged_snapshot()
    assert snap[(0, 1)] == 3.0
    assert snap[(1, 0)] == 0.0


def test_total_volume_counts_hops(ledger):
    ledger.record(0, 1, 0, 3.0)
    ledger.record(1, 2, 1, 3.0)  # same data relayed: billed twice
    assert ledger.total_volume() == 6.0
