"""The ForecastProvider: damped predictions feeding both lanes.

One provider instance is attached to a scheduler (the hybrid scheduler
wires it into both of its lanes) and follows the slot loop:

* :meth:`begin_slot` — once per slot, before planning: refresh the
  per-link forecasts over the configured horizon and the slot's trust
  factor.
* :meth:`reservation` — the damped, bounded GB of *predicted but not
  yet committed* background traffic on a future (link, slot) cell.
  The fast lane subtracts it from headroom/residual in its
  forecast-aware ALAP passes; the LP adds the same number to its
  charge rows (``X >= committed + predicted + new``), so both lanes
  price a predicted-busy slot as if the predicted traffic were already
  there — and therefore prefer parking pressured volume in slots
  forecast to sit under the current watermark.
* :meth:`observe_slot` — once per slot, after commit: feed every
  link's now-final carried volume and every pair's arrival volume to
  the predictors, score the one-step-ahead predictions made at
  :meth:`begin_slot`, and advance the stability guard.

Influence is shaped, never gating: the fast lane's final admission
pass and the LP's capacity rows stay on the *physical* residual
capacities, so a forecast (right or wrong) can change where volume is
placed but never whether a request is admitted.  Reservations apply
only to slots strictly after the current one — the present is
observed, not predicted — and are zero until the predictors have seen
one full period, so a cold provider is bit-for-bit the reactive
scheduler.

The provider deliberately lives on the scheduler, not inside
:class:`~repro.core.state.NetworkState`: state snapshots stay
forecast-free (the ``link_schedule_path`` config-not-state idiom), and
a provider attached before WAL replay retrains deterministically from
the replayed slots.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.forecast.guard import StabilityGuard
from repro.forecast.predictors import DoubleSeasonal
from repro.forecast.score import ForecastScoreboard
from repro.obs import registry as obs
from repro.units import VOLUME_ATOL

LinkKey = Tuple[int, int]


@dataclass
class ForecastConfig:
    """Tuning for one :class:`ForecastProvider`.

    ``period`` is the seasonal cycle in slots (a day, typically), and
    the provider reserves nothing until it has observed one full
    period; ``horizon`` is how many slots ahead reservations extend.
    """

    horizon: int = 24
    period: int = 24

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise SchedulingError(f"forecast horizon must be >= 1, got {self.horizon}")
        if self.period < 2:
            raise SchedulingError(f"forecast period must be >= 2, got {self.period}")


class ForecastProvider:
    """Online per-link forecasts + the stability guard, as one object.

    Parameters
    ----------
    config:
        Period and horizon (see :class:`ForecastConfig`).
    predictor_factory:
        Optional zero-argument callable returning a fresh predictor,
        overriding :class:`~repro.forecast.predictors.DoubleSeasonal`
        — the oscillation regression test injects adversarially wrong
        predictors here.
    """

    def __init__(
        self,
        config: Optional[ForecastConfig] = None,
        predictor_factory: Optional[Callable[[], object]] = None,
    ):
        self.config = config or ForecastConfig()
        cfg = self.config
        self._factory = predictor_factory or (lambda: DoubleSeasonal(cfg.period))
        self.guard = StabilityGuard()
        self.link_score = ForecastScoreboard(name="forecast.link")
        self.pair_score = ForecastScoreboard(name="forecast.pair")
        self._state = None
        self._capacity: Dict[LinkKey, float] = {}
        self._link_predictors: Dict[LinkKey, object] = {}
        self._pair_predictors: Dict[LinkKey, object] = {}
        self._now = -1
        self._trust = 0.0
        #: link -> {slot: raw predicted carried GB} over the horizon.
        self._raw: Dict[LinkKey, Dict[int, float]] = {}
        self._has_res: Dict[LinkKey, bool] = {}
        self._pending_link: Dict[LinkKey, float] = {}
        self._pending_pair: Dict[LinkKey, float] = {}
        self.slots_observed = 0
        #: GB committed into forecast-quiet slots while the same link
        #: carried a positive reservation elsewhere in the horizon — the
        #: "proactively shifted volume" activity indicator.
        self.shifted_gb = 0.0

    @classmethod
    def seasonal(cls, period: int, horizon: int = 0) -> "ForecastProvider":
        """The provider ``forecast_period`` / ``forecast_horizon`` spell,
        as service config or as ``simulate`` flags: ``horizon=0`` means
        one period ahead."""
        return cls(ForecastConfig(period=period, horizon=horizon or period))

    # -- wiring ----------------------------------------------------------

    def bind(self, state) -> None:
        """Point at the scheduler's live state (re-bind after restore).

        Predictor state survives a re-bind on purpose: a checkpoint
        adoption swaps the :class:`NetworkState` object, not the
        traffic process being predicted.
        """
        self._state = state
        for link in state.topology.links:
            self._capacity[link.key] = link.capacity
            if link.key not in self._link_predictors:
                self._link_predictors[link.key] = self._factory()

    @property
    def bound(self) -> bool:
        return self._state is not None

    @property
    def active(self) -> bool:
        """True once one full period has been observed."""
        return self._state is not None and self.slots_observed >= self.config.period

    @property
    def trust(self) -> float:
        """The damping factor in force for the current slot."""
        return self._trust

    @property
    def mape(self) -> float:
        return self.link_score.mape()

    @property
    def guard_trips(self) -> int:
        return self.guard.trips

    # -- the slot loop ---------------------------------------------------

    def begin_slot(self, slot: int) -> None:
        """Refresh forecasts and trust before the slot is planned."""
        self._now = slot
        self._trust = self.guard.trust(slot, self.link_score.mape())
        self._raw = {}
        self._has_res = {}
        self._pending_link = {}
        self._pending_pair = {}
        if self._state is None:
            return
        horizon = self.config.horizon
        for key, predictor in self._link_predictors.items():
            if not predictor.ready:
                continue
            # forecast(1) targets the slot being decided right now; it
            # is scored at observe time.  Reservations start one slot
            # later: the present is observed, not predicted.
            self._pending_link[key] = predictor.forecast(1)
            per_slot = {
                slot + h: predictor.forecast(h + 1)
                for h in range(1, horizon + 1)
            }
            self._raw[key] = per_slot
            self._has_res[key] = any(v > VOLUME_ATOL for v in per_slot.values())
        for key, predictor in self._pair_predictors.items():
            if predictor.ready:
                self._pending_pair[key] = predictor.forecast(1)

    def reservation(
        self, src: int, dst: int, slot: int, committed: Optional[float] = None
    ) -> float:
        """Damped GB of predicted-but-uncommitted load on a future cell.

        Zero for the current slot and the past, for cold links, and
        whenever the guard has damped trust to zero.  Otherwise the
        predicted carried volume minus what is already committed there
        (``committed``, when the caller has read it; else the state's),
        clamped by the guard's bounded shift fraction, scaled by trust.
        """
        if slot <= self._now or self._trust <= 0.0 or not self.active:
            return 0.0
        per_link = self._raw.get((src, dst))
        if not per_link:
            return 0.0
        raw = per_link.get(slot, 0.0)
        if raw <= 0.0:
            return 0.0
        if committed is None:
            committed = self._state.committed_volume(src, dst, slot)
        remaining = raw - committed
        if remaining <= 0.0:
            return 0.0
        bounded = self.guard.bound(remaining, self._capacity[(src, dst)])
        return self._trust * bounded

    def reservation_row(
        self, src: int, dst: int, start: int, committed: List[float]
    ) -> List[float]:
        """:meth:`reservation` of the cells ``start, start + 1, ...`` whose
        committed volumes the caller's row read holds in ``committed``.
        Each cell goes through :meth:`reservation`, the formula the LP's
        charge rows use; a cold link or an inactive slot asks none."""
        if not self._raw.get((src, dst)) or self._trust <= 0.0 or not self.active:
            return [0.0] * len(committed)
        reservation = self.reservation
        return [reservation(src, dst, start + i, volume)
                for i, volume in enumerate(committed)]

    #: LP charge rows add the same damped quantity the fast lane
    #: subtracts from headroom — one number, two lanes.
    predicted_volume = reservation

    def observe_slot(self, slot: int, requests, state=None) -> None:
        """Train on the slot's final ledger volumes and arrivals."""
        if state is not None and self._state is None:
            self.bind(state)
        st = self._state
        if st is None:
            return
        for key, predictor in self._link_predictors.items():
            actual = st.committed_volume(key[0], key[1], slot)
            predicted = self._pending_link.get(key)
            if predicted is not None:
                self.link_score.observe(key, predicted, actual)
            predictor.observe(actual)
        arrivals: Dict[LinkKey, float] = defaultdict(float)
        for request in requests:
            arrivals[(request.source, request.destination)] += request.size_gb
        for key in arrivals:
            if key not in self._pair_predictors:
                self._pair_predictors[key] = self._factory()
        for key, predictor in self._pair_predictors.items():
            actual = arrivals.get(key, 0.0)
            predicted = self._pending_pair.get(key)
            if predicted is not None:
                self.pair_score.observe(key, predicted, actual)
            predictor.observe(actual)
        self.slots_observed += 1
        self.guard.update(slot, self.link_score.mape())
        reg = obs.get_registry()
        if reg.enabled:
            reg.counter("forecast.slots")
            reg.gauge("forecast.mape", self.link_score.mape())
            reg.gauge("forecast.bias", self.link_score.bias())
            reg.gauge("forecast.trust", self._trust)
            reg.gauge("forecast.shifted_gb", self.shifted_gb)

    def note_placements(self, entries) -> None:
        """Count committed volume that landed in forecast-quiet slots.

        ``shifted_gb`` is an activity indicator, not a counterfactual:
        a transit entry counts when it was deferred past the decision
        slot into a cell the forecast marks quiet while the same link
        carries a positive reservation elsewhere in the horizon.
        """
        if self._trust <= 0.0 or not self.active:
            return
        for entry in entries:
            if entry.slot <= self._now:
                continue
            key = (entry.src, entry.dst)
            if not self._has_res.get(key):
                continue
            if self._raw[key].get(entry.slot, 0.0) <= VOLUME_ATOL:
                self.shifted_gb += entry.volume

    # -- reporting -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-safe summary for result objects / the ``metrics`` op."""
        return {
            "active": self.active,
            "predictor": "hw",
            "period": self.config.period,
            "horizon": self.config.horizon,
            "slots_observed": self.slots_observed,
            "links": len(self._link_predictors),
            "pairs": len(self._pair_predictors),
            "mape": round(self.link_score.mape(), 6),
            "bias": round(self.link_score.bias(), 6),
            "arrival_mape": round(self.pair_score.mape(), 6),
            "trust": round(self._trust, 6),
            "shifted_gb": round(self.shifted_gb, 6),
            "guard_trips": self.guard.trips,
        }
