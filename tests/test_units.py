"""Unit tests for unit conversions and charging-index arithmetic."""

import pytest

from repro import units


def test_oc192_fits_360gb_per_slot():
    # The paper: OC-192 moves up to 1.2 GB/s, i.e. 360 GB per 5 minutes.
    assert units.gb_per_slot_from_gbps(9.6) == pytest.approx(360.0)


def test_round_trip_conversion():
    assert units.gbps_from_gb_per_slot(units.gb_per_slot_from_gbps(3.3)) == pytest.approx(3.3)


def test_slots_from_seconds():
    assert units.slots_from_seconds(0) == 0
    assert units.slots_from_seconds(300) == 1
    assert units.slots_from_seconds(301) == 2
    assert units.slots_from_seconds(900) == 3  # Fig. 1: 15 minutes


def test_slots_from_seconds_negative():
    with pytest.raises(ValueError):
        units.slots_from_seconds(-1)


def test_paper_percentile_example():
    # 95th percentile over one year of 5-minute samples charges the
    # 99864-th sorted interval (the paper's arithmetic).
    assert units.percentile_slot_index(95, units.SLOTS_PER_YEAR) + 1 == 99864


def test_percentile_boundaries():
    assert units.percentile_slot_index(100, 10) == 9
    assert units.percentile_slot_index(1, 10) == 0
    assert units.percentile_slot_index(50, 1) == 0
    # q / 100.0 * n lands just under an integer here (0.29 * 100 is
    # 28.999...); the floor convention still charges the (q% * n)-th.
    assert units.percentile_slot_index(29, 100) == 28
    assert units.percentile_slot_index(57, 100) == 56
    assert units.percentile_slot_index(58, 50) == 28


def test_percentile_validation():
    with pytest.raises(ValueError):
        units.percentile_slot_index(0, 10)
    with pytest.raises(ValueError):
        units.percentile_slot_index(101, 10)
    with pytest.raises(ValueError):
        units.percentile_slot_index(95, 0)


def test_slots_per_year():
    assert units.SLOTS_PER_YEAR == 365 * 24 * 12
