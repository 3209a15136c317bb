"""Unit tests for statistics helpers."""

import numpy as np
import pytest

from repro.analysis import ConfidenceInterval, mean_ci, percentile


def test_mean_ci_single_value():
    ci = mean_ci([5.0])
    assert ci.mean == 5.0
    assert ci.half_width == 0.0
    assert ci.n == 1


def test_mean_ci_known_case():
    # Symmetric data: the mean is obvious; the half width is positive.
    ci = mean_ci([9.0, 11.0, 10.0, 10.0])
    assert ci.mean == pytest.approx(10.0)
    assert ci.half_width > 0
    assert ci.low < 10.0 < ci.high


def test_mean_ci_matches_scipy_t():
    values = [3.1, 2.9, 3.4, 3.0, 2.6]
    ci = mean_ci(values, confidence=0.95)
    from scipy import stats as sps

    sem = np.std(values, ddof=1) / np.sqrt(len(values))
    expected = sps.t.ppf(0.975, df=4) * sem
    assert ci.half_width == pytest.approx(expected)


def test_mean_ci_confidence_widens():
    values = [1.0, 2.0, 3.0, 4.0]
    assert mean_ci(values, 0.99).half_width > mean_ci(values, 0.90).half_width


def test_mean_ci_empty():
    with pytest.raises(ValueError):
        mean_ci([])


def test_str_format():
    text = str(ConfidenceInterval(10.0, 1.5, 0.95, 10))
    assert "10.00" in text and "1.50" in text and "95%" in text


def test_percentile_isp_convention():
    values = list(range(1, 101))
    assert percentile(values, 95) == 95.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 95) == 7.0
    assert percentile(range(10), 95) == 8.0  # index floor(9.5) - 1, not ceil


def test_percentile_empty():
    with pytest.raises(ValueError):
        percentile([], 95)
