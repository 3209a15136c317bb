"""Unit tests for unit conversions and charging-index arithmetic."""

import pytest

from repro import units


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
