"""Tests for repro.forecast: predictor, guard, provider, integration.

The load-bearing guarantees here are the ISSUE's acceptance criteria:
a cold (or distrusted) provider leaves the hybrid scheduler
bit-identical to the reactive one; a warm provider shifts volume
without ever changing admission; and adversarially wrong forecasts are
damped by the stability guard instead of oscillating the schedule.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.state import NetworkState
from repro.errors import SchedulingError
from repro.forecast import (
    DoubleSeasonal,
    ForecastConfig,
    ForecastProvider,
    StabilityGuard,
)
from repro.forecast.score import ForecastScoreboard
from repro.heuristic import FastLaneScheduler, HybridScheduler
from repro.net.generators import complete_topology
from repro.net.topology import Datacenter, Link, Topology
from repro.registry import make_scheduler
from repro.sim.engine import Simulation
from repro.traffic.workload import DiurnalWorkload


# -- the predictor ---------------------------------------------------------


class TestPredictors:
    def test_double_seasonal_learns_shape(self):
        season = [0.0, 10.0, 40.0, 10.0]
        p = DoubleSeasonal(period=4)
        for cycle in range(12):
            for value in season:
                p.observe(value)
        # After many clean cycles the phase shape is recovered.
        forecasts = [p.forecast(h + 1) for h in range(4)]
        assert forecasts[2] == pytest.approx(40.0, abs=2.0)
        assert forecasts[0] == pytest.approx(0.0, abs=2.0)
        assert all(f >= 0.0 for f in forecasts)

    def test_validation(self):
        with pytest.raises(SchedulingError):
            DoubleSeasonal(period=1)
        with pytest.raises(SchedulingError):
            DoubleSeasonal(4).forecast(0)


# -- the stability guard ---------------------------------------------------


class TestStabilityGuard:
    def test_trust_decays_with_error(self):
        guard = StabilityGuard()
        assert guard.trust(0, 0.0) == 1.0
        assert guard.trust(0, 1.0) == pytest.approx(1.0 / 1.35)
        assert guard.trust(0, 2.0) < guard.trust(0, 1.0)

    def test_bound_caps_reservation(self):
        guard = StabilityGuard()
        assert guard.bound(10.0, 100.0) == 10.0
        assert guard.bound(80.0, 100.0) == 60.0
        assert guard.bound(-3.0, 100.0) == 0.0

    def test_trip_wire_once_per_excursion(self):
        guard = StabilityGuard()
        # MAPE 2.5 is the wire itself: only above it trips.
        guard.update(9, mape=2.5)
        assert guard.trips == 0
        guard.update(10, mape=5.0)
        assert guard.trips == 1
        assert guard.tripped(12)
        assert guard.trust(12, 0.0) == 0.0
        # Still bad during the 24-slot cooldown: no re-trip.
        guard.update(34, mape=5.0)
        assert guard.trips == 1
        # After the cooldown a fresh excursion trips again.
        assert not guard.tripped(35)
        guard.update(35, mape=5.0)
        assert guard.trips == 2


# -- config ----------------------------------------------------------------


class TestForecastConfig:
    def test_validation(self):
        with pytest.raises(SchedulingError, match="horizon"):
            ForecastConfig(horizon=0)
        with pytest.raises(SchedulingError, match="period"):
            ForecastConfig(period=1)

    def test_only_period_and_horizon(self):
        assert sorted(vars(ForecastConfig())) == ["horizon", "period"]

    def test_warm_after_one_period(self):
        provider = ForecastProvider(ForecastConfig(period=3, horizon=1))
        provider.bind(HybridScheduler(two_node_topology(), horizon=20).state)
        for slot in range(3):
            assert not provider.active
            provider.begin_slot(slot)
            provider.observe_slot(slot, [])
        assert provider.active


# -- provider mechanics ----------------------------------------------------


class FlatPredictor:
    """Always-ready predictor returning one constant — test scaffolding."""

    def __init__(self, value: float):
        self.value = value
        self.ready = True

    def observe(self, value: float) -> None:
        pass

    def forecast(self, steps_ahead: int) -> float:
        return self.value


def two_node_topology(capacity=100.0):
    return Topology(
        [Datacenter(0), Datacenter(1)],
        [
            Link(0, 1, capacity=capacity, price=1.0),
            Link(1, 0, capacity=capacity, price=1.0),
        ],
    )


PERIOD = 2


class TestForecastProvider:
    def make_provider(self, value=60.0):
        provider = ForecastProvider(
            ForecastConfig(period=PERIOD, horizon=4),
            predictor_factory=lambda: FlatPredictor(value),
        )
        scheduler = HybridScheduler(two_node_topology(), horizon=20)
        provider.bind(scheduler.state)
        return provider, scheduler

    @staticmethod
    def warm_up(provider):
        """Observe one full (empty) period, then open the next slot."""
        for slot in range(PERIOD):
            provider.begin_slot(slot)
            provider.observe_slot(slot, [])
        provider.begin_slot(PERIOD)

    def test_cold_provider_reserves_nothing(self):
        provider, _ = self.make_provider()
        assert not provider.active
        provider.begin_slot(0)
        assert provider.reservation(0, 1, 2) == 0.0

    def test_warm_reservation_future_only(self):
        provider, _ = self.make_provider(value=60.0)
        self.warm_up(provider)
        assert provider.active
        now = PERIOD
        # Nothing committed, nothing observed as actual volume: trust 1.
        assert provider.trust == 1.0
        assert provider.reservation(0, 1, now + 1) == pytest.approx(60.0)
        # The present and the past are observed, never predicted.
        assert provider.reservation(0, 1, now) == 0.0
        assert provider.reservation(0, 1, now - 1) == 0.0

    def test_reservation_bounded_by_shift_fraction(self):
        provider, _ = self.make_provider(value=500.0)
        self.warm_up(provider)
        # Capacity 100, fraction 0.6: a 500 GB forecast reserves 60.
        assert provider.reservation(0, 1, PERIOD + 1) == pytest.approx(60.0)

    def test_predicted_volume_is_the_reservation(self):
        provider, _ = self.make_provider(value=30.0)
        self.warm_up(provider)
        slot = PERIOD + 2
        assert provider.predicted_volume(0, 1, slot) == provider.reservation(0, 1, slot)
        assert provider.reservation(0, 1, slot) == pytest.approx(30.0)

    def test_a_fast_lane_rebinds_its_provider_to_an_adopted_state(self):
        # A standalone fast lane used to re-attach its provider only if
        # unbound, so after a checkpoint adoption it kept training on, and
        # reserving against, the ledger it was built with.
        provider = ForecastProvider(
            ForecastConfig(period=PERIOD, horizon=4),
            predictor_factory=lambda: FlatPredictor(60.0),
        )
        topology = two_node_topology(capacity=250.0)
        scheduler = FastLaneScheduler(topology, horizon=20)
        scheduler.attach_forecast(provider)
        restored = NetworkState(topology, horizon=20)
        restored.ledger.record(0, 1, PERIOD, 40.0)
        restored.ledger.record(0, 1, PERIOD + 1, 40.0)
        scheduler.adopt_state(restored)
        self.warm_up(provider)
        # 60 GB predicted, 40 already on the restored books: 20 reserved.
        assert provider.reservation(0, 1, PERIOD + 1) == pytest.approx(20.0)
        # The slot is scored against the restored ledger's 40 GB.
        provider.observe_slot(PERIOD, [])
        board = ForecastScoreboard()
        for predicted, actual in ([(60.0, 0.0)] * PERIOD) + [(60.0, 40.0)]:
            board.observe((0, 1), predicted, actual)
        assert provider.link_score.mape((0, 1)) == board.mape()

    def test_stats_shape(self):
        provider, _ = self.make_provider()
        stats = provider.stats()
        for key in ("active", "predictor", "period", "horizon", "mape",
                    "bias", "trust", "shifted_gb", "guard_trips",
                    "slots_observed", "links", "pairs", "arrival_mape"):
            assert key in stats
        assert stats["predictor"] == "hw"


# -- the scoreboard ------------------------------------------------------------

_SCORES = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.sampled_from(["a", "b", "c"]),
                  st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
        st.tuples(st.sampled_from(["mape", "bias"]),
                  st.sampled_from([None, "a", "b"])),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(steps=_SCORES, window=st.integers(1, 5))
def test_every_scoreboard_read_is_a_fresh_scan(steps, window):
    # Pooled sums are kept between observations; each read, cached or
    # not, must equal what a board holding the same samples reads fresh.
    board, samples = ForecastScoreboard(window), []
    for step in steps:
        if step[0] == "observe":
            board.observe(*step[1:])
            samples.append(step[1:])
            continue
        read, key = step
        fresh = ForecastScoreboard(window)
        for sample in samples:
            fresh.observe(*sample)
        assert getattr(board, read)(key) == getattr(fresh, read)(key)


# -- end-to-end integration ------------------------------------------------


SLOTS_PER_DAY = 12


def run_hybrid(provider=None, num_slots=48):
    """One diurnal run with daily billing periods; returns (sched, result)."""
    topo = complete_topology(
        4, capacity=250.0, price_low=1.0, price_high=4.0, seed=3
    )
    workload = DiurnalWorkload(
        topo, max_deadline=6, peak_files=10, trough_files=1,
        slots_per_day=SLOTS_PER_DAY, seed=5,
    )
    scheduler = HybridScheduler(
        topo, horizon=num_slots + 12, on_infeasible="drop"
    )
    if provider is not None:
        scheduler.attach_forecast(provider)
    result = Simulation(
        scheduler, workload, num_slots, slots_per_period=SLOTS_PER_DAY
    ).run()
    return scheduler, result


def forecast_provider(**overrides):
    config = dict(period=SLOTS_PER_DAY, horizon=SLOTS_PER_DAY)
    config.update(overrides)
    return ForecastProvider(ForecastConfig(**config))


@pytest.mark.parametrize("name", ["heuristic", "hybrid"])
def test_any_scheduler_carrying_a_provider_trains_it(name):
    """The slot path runs the forecast lifecycle, not the hybrid: the
    standalone fast lane's provider observes every slot, idle ones too."""
    topo = complete_topology(4, capacity=250.0, seed=3)
    workload = DiurnalWorkload(
        topo, max_deadline=6, peak_files=4, trough_files=0,
        slots_per_day=SLOTS_PER_DAY, seed=5,
    )
    scheduler = make_scheduler(name, topo, 40)
    provider = forecast_provider()
    scheduler.attach_forecast(provider)
    result = Simulation(scheduler, workload, 24).run()
    assert any(slot.num_requests == 0 for slot in result.slots)
    assert provider.slots_observed == 24
    assert result.forecast["active"]


class TestHybridIntegration:
    def test_cold_run_is_bit_identical(self):
        """Below the warmup window the provider must be a no-op: every
        number the reactive run produces, exactly."""
        _, reactive = run_hybrid(None, num_slots=10)
        _, forecasted = run_hybrid(forecast_provider(), num_slots=10)
        assert forecasted.total_bill == reactive.total_bill
        assert forecasted.final_cost_per_slot == reactive.final_cost_per_slot
        assert forecasted.total_transit_gb == reactive.total_transit_gb
        assert [s.cost_per_slot_after for s in forecasted.slots] == [
            s.cost_per_slot_after for s in reactive.slots
        ]
        assert forecasted.forecast is not None
        assert forecasted.forecast["active"] is False

    def test_warm_run_shifts_volume_at_equal_admission(self):
        _, reactive = run_hybrid(None)
        _, forecasted = run_hybrid(forecast_provider())
        # The invariant: forecasts shape placement, never admission.
        assert forecasted.total_rejected == reactive.total_rejected
        assert forecasted.total_requests == reactive.total_requests
        # It must actually act (defer volume into quiet slots) and,
        # on clean diurnal traffic, not cost more than reacting.
        assert forecasted.forecast["shifted_gb"] > 0.0
        assert forecasted.forecast["guard_trips"] == 0
        assert forecasted.total_bill <= reactive.total_bill
        assert forecasted.max_lateness() == 0

    def test_oscillation_guard_under_injected_error(self):
        """The ISSUE's regression: with >= 30% adversarial forecast
        error alternating sign each slot, the damped controller must
        neither oscillate the bill nor change admission."""

        class AdversarialPredictor:
            """A real predictor whose forecasts swing x1.6 / x0.4."""

            def __init__(self):
                self.inner = DoubleSeasonal(SLOTS_PER_DAY)
                self.observed = 0

            @property
            def ready(self):
                return self.inner.ready

            def observe(self, value):
                self.observed += 1
                self.inner.observe(value)

            def forecast(self, steps_ahead):
                scale = 1.6 if self.observed % 2 == 0 else 0.4
                return self.inner.forecast(steps_ahead) * scale

        provider = ForecastProvider(
            ForecastConfig(period=SLOTS_PER_DAY, horizon=SLOTS_PER_DAY),
            predictor_factory=AdversarialPredictor,
        )
        _, reactive = run_hybrid(None)
        scheduler, wrong = run_hybrid(provider)
        # The injected error is real (>= 30% rolling MAPE) and damping
        # engaged (trust strictly below blind faith).
        assert wrong.forecast["mape"] >= 0.3
        assert wrong.forecast["trust"] < 1.0
        # No admission change, no deadline miss, and the bill stays in
        # a tight band around the reactive baseline instead of
        # diverging — the bounded-shift + damping stability property.
        assert wrong.total_rejected == reactive.total_rejected
        assert wrong.max_lateness() == 0
        assert wrong.total_bill <= reactive.total_bill * 1.10

    def test_hopeless_forecasts_trip_the_guard(self):
        provider = ForecastProvider(
            ForecastConfig(period=SLOTS_PER_DAY, horizon=SLOTS_PER_DAY),
            predictor_factory=lambda: FlatPredictor(1e6),
        )
        _, reactive = run_hybrid(None)
        scheduler, wrong = run_hybrid(provider)
        assert wrong.forecast["guard_trips"] >= 1
        # While tripped the provider is inert: trust pinned to zero.
        assert wrong.forecast["trust"] == 0.0
        assert wrong.total_rejected == reactive.total_rejected
        assert wrong.max_lateness() == 0

    def test_adopt_state_rebinds_provider(self):
        scheduler, _ = run_hybrid(forecast_provider(), num_slots=12)
        provider = scheduler.forecast
        fresh = HybridScheduler(
            complete_topology(
                4, capacity=250.0, price_low=1.0, price_high=4.0, seed=3
            ),
            horizon=40, on_infeasible="drop",
        )
        fresh.attach_forecast(provider)
        fresh.adopt_state(scheduler.state)
        assert provider.bound
        # Predictor training survives the re-bind (checkpoint adoption
        # swaps the state object, not the traffic process).
        assert provider.slots_observed == 12
