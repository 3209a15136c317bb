"""The online predictor for per-link traffic and per-pair arrivals.

:class:`DoubleSeasonal` consumes one value per slot through
:meth:`~DoubleSeasonal.observe` and answers
:meth:`~DoubleSeasonal.forecast` queries for any number of steps
ahead, in O(1) per call, from state that is a pure function of the
observation sequence — so a crash-recovery replay that re-feeds the
same slots reproduces the same forecasts bit for bit.

Forecasts are clamped to be non-negative (traffic volumes).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SchedulingError

#: Smoothing weights of the level and of the seasonal indices.
ALPHA = 0.3
GAMMA = 0.3


class DoubleSeasonal:
    """Holt–Winters-style additive level + seasonal index smoothing.

    One seasonal array of length ``period`` is maintained.  Updates are
    the standard additive recurrences::

        level  <- ALPHA * (y - s[i]) + (1 - ALPHA) * level
        s[i]   <- GAMMA * (y - level) + (1 - GAMMA) * s[i]

    The seasonal shape is averaged across seasons, so one noisy day
    does not get copied verbatim into the next day's forecasts.
    """

    def __init__(self, period: int):
        if period < 2:
            raise SchedulingError(f"seasonal period must be >= 2, got {period}")
        self.period = period
        self._level: Optional[float] = None
        self._season: List[float] = [0.0] * period
        self._count = 0

    @property
    def ready(self) -> bool:
        """True once one full season has been observed."""
        return self._count >= self.period

    def observe(self, value: float) -> None:
        y = float(value)
        if self._level is None:
            self._level = y
        else:
            i = self._count % self.period
            s = self._season[i]
            self._level = ALPHA * (y - s) + (1.0 - ALPHA) * self._level
            self._season[i] = GAMMA * (y - self._level) + (1.0 - GAMMA) * s
        self._count += 1

    def forecast(self, steps_ahead: int) -> float:
        if steps_ahead < 1:
            raise SchedulingError("forecast horizon must be >= 1 step")
        if not self.ready:
            return 0.0
        n = self._count - 1 + steps_ahead
        return max(0.0, (self._level or 0.0) + self._season[n % self.period])
