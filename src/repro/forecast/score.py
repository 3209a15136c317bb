"""One accuracy scoreboard for every predictor — synthetic or learned.

:class:`ForecastScoreboard` keeps a rolling window of (predicted,
actual) pairs per key — a (src, dst) link for the background-traffic
predictors, a (src, dst) pair for arrival intensity, and the same for
:class:`~repro.traffic.predictor.NoisyPreview`'s synthetic previews —
and reports the two numbers the stability guard and the operators read:

* **MAPE** — the volume-weighted mean absolute percentage error
  ``sum |pred - actual| / sum actual`` over the window (a.k.a. WAPE).
  The volume weighting is deliberate: per-link per-slot traffic is
  sparse, and a plain per-observation MAPE divides by near-zero
  actuals and explodes on exactly the slots that matter least.
* **bias** — ``sum (pred - actual) / sum actual``: positive means the
  predictor systematically over-forecasts (and the damped controller
  over-reserves), negative means it under-forecasts.

Every observation also streams through :mod:`repro.obs` (a
``forecast.scored`` counter plus an absolute-error histogram) when a
sink is attached, so live services expose the same accuracy view the
offline benchmarks print.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, Optional, Tuple

from repro.errors import SchedulingError
from repro.obs import registry as obs

#: Denominator floor: below this much actual volume in the window the
#: error ratios are reported as 0 (nothing meaningful was predicted).
_MIN_ACTUAL = 1e-9


class ForecastScoreboard:
    """Rolling per-key forecast accuracy (volume-weighted MAPE + bias)."""

    def __init__(self, window: int = 96, name: str = "forecast"):
        if window < 1:
            raise SchedulingError(f"score window must be >= 1, got {window}")
        self.window = window
        self.name = name
        self._pairs: Dict[Hashable, Deque[Tuple[float, float]]] = {}
        self.observations = 0
        #: The pooled :meth:`_sums`, kept until the next :meth:`observe`
        #: (the one writer): a slot reads them four times.
        self._pooled: Optional[Tuple[float, float, float]] = None

    def observe(self, key: Hashable, predicted: float, actual: float) -> None:
        """Fold one (predicted, actual) sample for ``key`` in."""
        ring = self._pairs.get(key)
        if ring is None:
            ring = self._pairs[key] = deque(maxlen=self.window)
        ring.append((float(predicted), float(actual)))
        self.observations += 1
        self._pooled = None
        reg = obs.get_registry()
        if reg.enabled:
            reg.counter(f"{self.name}.scored")
            reg.histogram(
                f"{self.name}.abs_error", abs(predicted - actual)
            )

    # -- queries ---------------------------------------------------------

    def _sums(self, key: Optional[Hashable]) -> Tuple[float, float, float]:
        """(sum |err|, sum signed err, sum actual) over the window; the
        pooled sums (``key=None``) are scanned once per :meth:`observe`."""
        if key is not None:
            rings = [self._pairs[key]] if key in self._pairs else []
        elif self._pooled is not None:
            return self._pooled
        else:
            rings = list(self._pairs.values())
        abs_err = signed = actual_sum = 0.0
        for ring in rings:
            for predicted, actual in ring:
                abs_err += abs(predicted - actual)
                signed += predicted - actual
                actual_sum += actual
        if key is None:
            self._pooled = abs_err, signed, actual_sum
        return abs_err, signed, actual_sum

    def mape(self, key: Optional[Hashable] = None) -> float:
        """Volume-weighted MAPE over the window (all keys pooled by
        default)."""
        abs_err, _, actual_sum = self._sums(key)
        if actual_sum <= _MIN_ACTUAL:
            return 0.0
        return abs_err / actual_sum

    def bias(self, key: Optional[Hashable] = None) -> float:
        """Signed relative error: > 0 over-forecasts, < 0 under."""
        _, signed, actual_sum = self._sums(key)
        if actual_sum <= _MIN_ACTUAL:
            return 0.0
        return signed / actual_sum

    def keys(self):
        return list(self._pairs)

    def summary(self) -> Dict[str, float]:
        """The reporting set: pooled mape/bias plus coverage counts."""
        return {
            "observations": self.observations,
            "keys": len(self._pairs),
            "mape": round(self.mape(), 6),
            "bias": round(self.bias(), 6),
        }
