"""Forecast-driven proactive scheduling (PR 10).

One online seasonal predictor per link learns the carried background
traffic ``B_ij(n)``, and one per (src, dst) pair the arrival intensity,
from the observed slots, and a :class:`~repro.forecast.provider.ForecastProvider`
feeds the damped predictions into both scheduling lanes so pressured
volume is deferred into slots forecast to sit under the current
watermark.  A TARDIS-style stability guard (bounded shift fraction plus
error-adaptive damping) keeps the controller from oscillating when the
forecasts are wrong.

Everything here is stdlib + numpy; there are no ML dependencies.
"""

from repro.forecast.guard import StabilityGuard
from repro.forecast.predictors import DoubleSeasonal
from repro.forecast.provider import ForecastConfig, ForecastProvider
from repro.forecast.score import ForecastScoreboard

__all__ = [
    "DoubleSeasonal",
    "ForecastConfig",
    "ForecastProvider",
    "ForecastScoreboard",
    "StabilityGuard",
]
