"""The TARDIS-style stability guard: bounded shift + adaptive damping.

A forecast-driven controller has a feedback loop: shifted volume
changes the traffic the predictors then observe, which changes the
forecasts, which changes the shifting.  TARDIS (PAPERS.md) shows the
loop stays stable when two fixed bounds hold it, and
:class:`StabilityGuard` implements both:

* **Bounded shift fraction** — the reservation a forecast may place on
  any (link, slot) cell is capped at ``MAX_SHIFT_FRACTION`` of the
  link's capacity, so even a confidently wrong forecast can never
  starve a cell or flip the whole schedule.
* **Error-adaptive damping** — reservations are scaled by a *trust*
  factor ``1 / (1 + DAMPING_BETA * mape)`` computed from the
  scoreboard's rolling volume-weighted MAPE: the worse the recent
  forecasts, the less the controller acts on them, decaying smoothly
  towards zero influence — i.e. to the reactive scheduler — as
  predictions degrade.

On top of the smooth damping sits a **trip wire**: if the rolling MAPE
exceeds ``TRIP_MAPE`` the guard trips, forcing trust to zero for
``TRIP_COOLDOWN`` slots (and counting the trip, which the CI smoke run
asserts stays at zero on clean workloads).
"""

from __future__ import annotations

from repro.obs import registry as obs


class StabilityGuard:
    """Damping + bounding policy for forecast-driven reservations."""

    #: Cap on one cell's reservation, as a fraction of the link's capacity.
    MAX_SHIFT_FRACTION = 0.6
    #: Slope of the trust decay in the rolling MAPE.
    DAMPING_BETA = 0.35
    #: Rolling MAPE above which the guard trips.
    TRIP_MAPE = 2.5
    #: Slots a trip holds trust at zero.
    TRIP_COOLDOWN = 24

    def __init__(self):
        #: Times the trip wire fired (MAPE above ``TRIP_MAPE``).
        self.trips = 0
        self._cooldown_until = -1

    def update(self, slot: int, mape: float) -> None:
        """Check the trip wire against the current rolling MAPE.

        Called once per observed slot; while a cooldown from an earlier
        trip is active, a still-bad MAPE does not re-trip (one trip per
        excursion, not one per slot).
        """
        if slot < self._cooldown_until:
            return
        if mape > self.TRIP_MAPE:
            self.trips += 1
            self._cooldown_until = slot + 1 + self.TRIP_COOLDOWN
            obs.counter("forecast.guard_trips", slot=slot, mape=round(mape, 4))

    def tripped(self, slot: int) -> bool:
        """True while a trip's cooldown suppresses all forecast influence."""
        return slot < self._cooldown_until

    def trust(self, slot: int, mape: float) -> float:
        """The damping factor applied to every reservation this slot."""
        if self.tripped(slot):
            return 0.0
        return 1.0 / (1.0 + self.DAMPING_BETA * max(0.0, mape))

    def bound(self, reservation: float, capacity: float) -> float:
        """Clamp a raw reservation to the bounded shift fraction."""
        if reservation <= 0.0:
            return 0.0
        return min(reservation, self.MAX_SHIFT_FRACTION * capacity)
