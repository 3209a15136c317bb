"""Statistics used when reporting experiments.

The paper reports "average costs per time interval and their 95%
confidence intervals" over 10 simulation runs; :func:`mean_ci`
implements exactly that (Student-t interval over run means).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtrit


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.2f} +/- {self.half_width:.2f} ({self.confidence:.0%}, n={self.n})"


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``values``.

    With a single observation the half-width is 0 (degenerate but
    convenient for smoke-scale runs).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    mean = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(mean, 0.0, confidence, 1)
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    # The Student-t quantile ``scipy.stats.t.ppf`` evaluates, bit for bit,
    # without importing scipy.stats.
    t = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
    return ConfidenceInterval(mean, t * sem, confidence, int(arr.size))


def percentile(values: Sequence[float], q: float) -> float:
    """The ISP-convention q-th percentile (ascending sort, index
    ``floor(q% * n) - 1``, at least 0) — NOT numpy's interpolating percentile."""
    from repro.units import percentile_slot_index

    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("need at least one value")
    return float(arr[percentile_slot_index(q, arr.size)])
