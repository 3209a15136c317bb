"""The simulator and the daemon decide a slot the same way.

One request stream runs through :class:`~repro.sim.engine.Simulation`
and through a store-less, manually ticked
:class:`~repro.service.slotloop.TransferBroker` built from the same
config.  Both must end on the same ledger cells (the broker's live cells
plus the closed-period cells its rollovers pruned), the same paid
peaks, the same banked period bills and the same admitted requests,
whatever the scheduler, the billing period, the link windows, the
forecaster and the idle slots in the stream.  ``SLOT_STEP_EXAMPLES``
sets the depth (CI: 200).
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import state_to_payload
from repro.core.interfaces import slot_step
from repro.net.schedule import AvailabilityWindow, LinkSchedule
from repro.registry import make_scheduler
from repro.service.config import ServiceConfig
from repro.service.slotloop import TransferBroker
from repro.sim.engine import Simulation
from repro.traffic.spec import TransferRequest
from repro.traffic.workload import TraceWorkload

EXAMPLES = int(os.environ.get("SLOT_STEP_EXAMPLES", "8"))

SCHEDULERS = ("direct", "greedy", "heuristic", "postcard", "hybrid")
MAX_DEADLINE = 4


@st.composite
def streams(draw):
    """A drawn config (scheduler, period, capacity, forecaster), link
    windows, and one batch per slot; an empty batch is an idle slot."""
    name = draw(st.sampled_from(SCHEDULERS))
    config = dict(
        datacenters=4, seed=3, max_deadline=MAX_DEADLINE, tick_seconds=0.0,
        scheduler=name,
        capacity=float(draw(st.integers(12, 60))),
        period_slots=draw(st.sampled_from([0, MAX_DEADLINE + 1, MAX_DEADLINE + 3])),
        forecast=name == "hybrid" and draw(st.booleans()),
        forecast_period=3,
    )
    windows = []
    if draw(st.booleans()):
        links = draw(st.lists(st.permutations(range(4)).map(lambda p: tuple(p[:2])),
                              min_size=1, max_size=3, unique=True))
        for src, dst in links:  # up, dark for 1-3 slots, up again
            start, stop = draw(st.integers(0, 4)), draw(st.integers(1, 3))
            if start:
                windows.append(AvailabilityWindow(src, dst, 0, start))
            windows.append(AvailabilityWindow(src, dst, start + stop, start + stop + 200))
    batches = draw(st.lists(st.lists(st.tuples(
        st.permutations(range(4)), st.integers(1, 30), st.integers(1, MAX_DEADLINE),
    ), max_size=4), min_size=3, max_size=12))
    return config, windows, [
        [(src, dst, float(size), deadline) for (src, dst, *_), size, deadline in batch]
        for batch in batches
    ]


def simulated(config, batches):
    """The stream through the simulator: (final state, admitted indices)."""
    scheduler = make_scheduler(config.scheduler, config.topology(), config.horizon)
    scheduler.state.link_schedule = config.link_schedule()
    if config.forecast:
        from repro.forecast import ForecastProvider

        scheduler.attach_forecast(
            ForecastProvider.seasonal(config.forecast_period, config.forecast_horizon)
        )
    requests = [
        TransferRequest(*fields, release_slot=slot)
        for slot, batch in enumerate(batches) for fields in batch
    ]
    Simulation(
        scheduler, TraceWorkload(requests), len(batches),
        slots_per_period=config.period_slots,
    ).run()
    completed = scheduler.state.completions
    return scheduler.state, {
        i for i, request in enumerate(requests) if request.request_id in completed
    }


def brokered(config, batches):
    """The stream through the daemon's broker, one ``process_slot`` per
    batch: (final state, admitted indices, the cells rollovers pruned)."""
    broker = TransferBroker(config)
    ledger, pruned = broker.state.ledger, {}
    prune = ledger.prune_before

    def record_then_prune(slot):
        for src, dst in ledger.used_links():
            for n, volume in ledger.usage(src, dst).volumes.items():
                if n < slot:
                    pruned[src, dst, n] = volume
        return prune(slot)

    ledger.prune_before = record_then_prune
    serial = 0
    for batch in batches:
        for src, dst, size, deadline in batch:
            broker.submit({"id": str(serial), "source": src, "destination": dst,
                           "size_gb": size, "deadline_slots": deadline})
            serial += 1
        broker.process_slot()
    return broker.state, {
        int(cid) for cid, record in broker.decisions.items()
        if record["decision"] == "admitted"
    }, pruned


def books(state, pruned=()):
    payload = state_to_payload(state)
    usage = payload["usage"]
    for src, dst, n in pruned:
        cells = usage.setdefault(f"{src},{dst}", {})
        assert str(n) not in cells  # a pruned cell never comes back
        cells[str(n)] = pruned[src, dst, n]
    return usage, payload["charged"], list(state.banked_period_bills)


@settings(max_examples=EXAMPLES, deadline=None)
@given(streams())
def test_the_simulator_and_the_broker_keep_the_same_books(stream):
    fields, windows, batches = stream
    with tempfile.TemporaryDirectory() as root:
        if windows:
            fields = dict(fields, link_schedule_path=os.path.join(root, "windows.json"))
            LinkSchedule(windows).to_file(fields["link_schedule_path"])
        config = ServiceConfig(**fields)
        sim_state, sim_admitted = simulated(config, batches)
        broker_state, broker_admitted, pruned = brokered(config, batches)
    assert books(broker_state, pruned) == books(sim_state)
    assert broker_admitted == sim_admitted


def test_the_step_closes_every_period_the_slot_has_passed():
    scheduler = make_scheduler("heuristic", ServiceConfig().topology(), 64)
    scheduler.on_slot(0, [TransferRequest(0, 1, 12.0, 3, release_slot=0)])
    step = slot_step(scheduler, 13, [], 4)
    assert scheduler.state.period_start == 12
    assert len(step.bills) == 3 and step.bills == scheduler.state.banked_period_bills
    assert step.bills[0] > 0.0 and step.bills[1:] == [0.0, 0.0]
    assert slot_step(scheduler, 15, [], 4).bills == []


def test_an_idle_broker_slot_runs_the_scheduler(monkeypatch):
    broker = TransferBroker(ServiceConfig(tick_seconds=0.0, datacenters=4))
    calls, on_slot = [], broker.scheduler.on_slot

    def counted(slot, requests):
        calls.append((slot, list(requests)))
        return on_slot(slot, requests)

    monkeypatch.setattr(broker.scheduler, "on_slot", counted)
    assert broker.process_slot() == [] and broker.process_slot() == []
    assert calls == [(0, []), (1, [])]
    assert broker.next_slot == 2 and broker.counts["slots"] == 2
