"""Billing-rollover tests: a broker that outlives its charging period.

With ``period_slots=P`` the slot loop closes the charging period at
every multiple of P instead of refusing submissions near the horizon:
the closed period's bill (max-charging over its own samples) is banked,
and the paid-peak watermark ``X_ij`` re-seeds from the volume in-flight
transfers have already committed past the boundary.  The money
invariants under test:

* **Conservation** — over >=3 cycles, every banked bill equals the bill
  recomputed independently from the full ledger (the cells each
  rollover pruned, plus the live ones) for exactly that period's
  half-open slot range; periods partition the committed volume, so
  nothing is billed twice or dropped at a boundary.
* **Watermark re-seed** — after a rollover the charged volume per link
  is exactly the peak committed at-or-after the boundary (in-flight
  carry-over), not the old period's paid peak.
* **Crash equivalence** — a WAL broker killed mid-run and replayed
  lands on the same period_start, the same banked bills, and a
  strict-clean recovery verifier, even when the kill brackets a
  boundary.
"""

import pytest

from repro.charging.ledger import TrafficLedger
from repro.errors import ChargingError, ServiceError
from repro.net.generators import complete_topology
from repro.service import ServiceConfig, TransferBroker

PERIOD = 8


def make_broker(tmp_path=None, **overrides) -> TransferBroker:
    base = dict(
        port=0,
        datacenters=4,
        capacity=50.0,
        max_deadline=4,
        tick_seconds=0.0,
        period_slots=PERIOD,
    )
    if tmp_path is not None:
        base.update(checkpoint_dir=str(tmp_path), checkpoint_every=1)
    base.update(overrides)
    return TransferBroker(ServiceConfig(**base))


def submit_fields(i, source=0, destination=1, size=3.0, deadline=3):
    return {
        "id": f"r{i}",
        "source": source,
        "destination": destination,
        "size_gb": size,
        "deadline_slots": deadline,
    }


def drive_cycles(broker, cycles=3, per_slot=1):
    """Submit a steady drip and tick through ``cycles`` full periods."""
    i = 0
    for slot in range(cycles * PERIOD + 1):
        # Skew sources/destinations so links build distinct peaks.
        for _ in range(per_slot):
            broker.submit(submit_fields(
                i, source=i % 3, destination=(i % 3) + 1,
                size=2.0 + (i % 4), deadline=1 + (i % 3),
            ))
            i += 1
        broker.process_slot()
    return i


def keep_history(broker) -> TrafficLedger:
    """A ledger that ends up holding every cell ``broker`` ever committed:
    the cells each rollover prunes are copied into it first, and
    :func:`with_live_cells` adds the ones still live."""
    ledger = broker.state.ledger
    history = TrafficLedger(ledger.topology, ledger.horizon)
    prune = ledger.prune_before

    def copy_then_prune(slot):
        for src, dst in ledger.used_links():
            for n, volume in ledger.usage(src, dst).volumes.items():
                if n < slot:
                    history.record(src, dst, n, volume)
        return prune(slot)

    ledger.prune_before = copy_then_prune
    return history


def with_live_cells(history, ledger) -> TrafficLedger:
    for src, dst in ledger.used_links():
        for n, volume in ledger.usage(src, dst).volumes.items():
            history.record(src, dst, n, volume)
    return history


def test_config_period_validation():
    with pytest.raises(ServiceError, match="period_slots"):
        ServiceConfig(period_slots=-1)
    # A transfer may straddle at most one boundary: the period must
    # strictly exceed the deadline bound.
    with pytest.raises(ServiceError, match="period_slots"):
        ServiceConfig(period_slots=8, max_deadline=8)


def test_single_period_mode_still_refuses_past_horizon():
    broker = make_broker(period_slots=0, horizon=16)
    broker.next_slot = 14
    with pytest.raises(ServiceError, match="horizon"):
        broker.submit(submit_fields(0, deadline=3))


def test_rollover_banks_conserved_bills():
    broker = make_broker()
    history = keep_history(broker)
    submitted = drive_cycles(broker, cycles=3)
    state = broker.state
    assert state.period_start == 3 * PERIOD
    assert len(state.banked_period_bills) == 3
    assert broker.counts["admitted"] == submitted
    full = with_live_cells(history, state.ledger)
    # Every banked bill re-derives from the full ledger for its own
    # half-open range — and only that range (no double-charging a
    # boundary slot into two periods).
    for k, banked in enumerate(state.banked_period_bills):
        recomputed = full.period_cost(k * PERIOD, (k + 1) * PERIOD)
        assert banked == pytest.approx(recomputed)
        assert banked > 0.0
    # The period ranges partition the committed volume: summing each
    # period's samples (plus the open tail) recovers every recorded
    # GB exactly once — nothing double-counted at a boundary, nothing
    # dropped.
    tail_end = max(
        state.period_start + 1,
        max(
            full.usage(src, dst).last_slot()
            for src, dst in full.used_links()
        ) + 1,
    )
    per_period_volume = sum(
        float(full.samples_range(src, dst, k * PERIOD, (k + 1) * PERIOD).sum())
        for src, dst in full.used_links()
        for k in range(3)
    ) + sum(
        float(full.samples_range(src, dst, state.period_start, tail_end).sum())
        for src, dst in full.used_links()
    )
    assert per_period_volume == pytest.approx(full.total_volume())
    # The live books hold the open period only.
    assert state.ledger.total_volume() == pytest.approx(
        full.total_volume() - sum(
            float(full.samples_range(src, dst, 0, state.period_start).sum())
            for src, dst in full.used_links()
        )
    )


def test_boundary_slot_bills_into_exactly_one_period():
    topology = complete_topology(3, capacity=50.0, seed=0)
    ledger = TrafficLedger(topology, horizon=64)
    price = next(l for l in topology.links if l.key == (0, 1)).price
    ledger.record(0, 1, PERIOD - 1, 4.0)  # last slot of period 1
    ledger.record(0, 1, PERIOD, 9.0)      # first slot of period 2
    bill1 = ledger.period_cost(0, PERIOD)
    bill2 = ledger.period_cost(PERIOD, 2 * PERIOD)
    # Half-open ranges: the boundary slot's 9 GB bills into period 2
    # only; were it also counted in period 1 (max charging), bill1
    # would jump to 9 * price * PERIOD.
    assert bill1 == pytest.approx(price * 4.0 * PERIOD)
    assert bill2 == pytest.approx(price * 9.0 * PERIOD)


def test_rollover_reseeds_watermark_from_inflight_volume():
    broker = make_broker()
    # Fill slots right up to the boundary; the last submission's
    # deadline straddles it, committing volume past slot PERIOD.
    for slot in range(PERIOD - 1):
        broker.submit(submit_fields(slot, size=4.0, deadline=1))
        broker.process_slot()
    broker.submit(submit_fields(99, size=6.0, deadline=4))
    broker.process_slot()  # decides at slot PERIOD-1, may spill over
    state = broker.state
    pre_peaks = {
        link.key: state.ledger.peak_in_range(
            link.src, link.dst, PERIOD, PERIOD + state.horizon
        )
        for link in state.topology.links
    }
    broker.process_slot()  # crosses the boundary -> rollover
    assert state.period_start == PERIOD
    assert len(state.banked_period_bills) == 1
    for link in state.topology.links:
        assert state.charged_volume(link.src, link.dst) == pytest.approx(
            pre_peaks[link.key]
        )
    # The straddling transfer left volume in the new period, so at
    # least one watermark carried over non-zero — the re-seed is real,
    # not vacuous.
    assert any(peak > 0.0 for peak in pre_peaks.values())
    assert broker.stats()["periods_banked"] == 1
    assert broker.stats()["last_period_bill"] > 0.0


def test_rollover_fires_on_empty_slots_too():
    broker = make_broker()
    for _ in range(2 * PERIOD + 1):
        broker.process_slot()
    assert broker.state.period_start == 2 * PERIOD
    assert broker.state.banked_period_bills == [0.0, 0.0]


def test_wal_replay_reproduces_rollover(tmp_path):
    # Reference run: uninterrupted across 2 boundaries.
    ref = make_broker(tmp_path / "ref")
    drive_cycles(ref, cycles=2)
    # Crashed run: same inputs, new process resumes from WAL.
    crash_dir = tmp_path / "crash"
    first = make_broker(crash_dir)
    drive_cycles(first, cycles=2)
    # Simulate the kill: drop the object without any graceful close.
    del first
    resumed = make_broker(crash_dir)
    assert resumed.resumed
    report = resumed.verifier_report
    assert report is not None and report["ok"], report
    assert resumed.state.period_start == ref.state.period_start
    assert resumed.state.banked_period_bills == pytest.approx(
        ref.state.banked_period_bills
    )
    assert resumed.next_slot == ref.next_slot
    for link in ref.state.topology.links:
        assert resumed.state.charged_volume(
            link.src, link.dst
        ) == pytest.approx(ref.state.charged_volume(link.src, link.dst))


def test_ledger_prune_before_drops_closed_samples():
    topology = complete_topology(3, capacity=50.0, seed=0)
    ledger = TrafficLedger(topology, horizon=64)
    ledger.record(0, 1, 2, 5.0)
    ledger.record(0, 1, 9, 7.0)
    ledger.record(1, 2, 3, 1.0)
    dropped = ledger.prune_before(8)
    assert dropped == 2
    assert ledger.volume(0, 1, 2) == 0.0
    assert ledger.volume(0, 1, 9) == 7.0
    with pytest.raises(ChargingError):
        ledger.prune_before(-1)


def test_broker_period_prune_keeps_open_period_books():
    broker = make_broker()
    drive_cycles(broker, cycles=2)
    state = broker.state
    # Closed-period samples are gone (that is the point of pruning)...
    assert state.ledger.period_cost(0, PERIOD) == 0.0
    # ...but the banked bills were taken first and survive.
    assert len(state.banked_period_bills) == 2
    assert all(bill > 0.0 for bill in state.banked_period_bills)
    # And the open period's books still satisfy the recovery verifier's
    # conservation check (watermark >= open-period peak).
    for link in state.topology.links:
        peak = state.ledger.peak_in_range(
            link.src, link.dst, state.period_start,
            state.period_start + state.horizon,
        )
        assert state.charged_volume(link.src, link.dst) >= peak - 1e-9
