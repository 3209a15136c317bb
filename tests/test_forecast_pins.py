"""Bit-identity pins for the forecast layer on CI's proactive-shift stream.

``tests/data/forecast_pins.json`` holds, for the diurnal stream of CI's
proactive-shift smoke step (4 datacenters, ``complete_topology(seed=3,
price_low=1, price_high=4)``, ``DiurnalWorkload(seed=5,
slots_per_day=12)``, a hybrid scheduler with ``ForecastConfig(period=12,
horizon=12)`` over 48 daily-billed slots), every slot's
``cost_per_slot_after`` and the run's full ``result.forecast`` dict.
Two capacities are pinned: at 250 GB nothing escalates, so the fast
lane's forecast passes decide every slot; at 60 GB most slots escalate,
so the LP's forecast charge rows run too.  The comparison is exact: a
reservation that moves by one ulp can move a later placement.

Run this file as a script to re-record, only from a commit whose
forecasts are the intended reference.  The bits depend on the
interpreter's float ``sum`` and, for the escalating stream, on the LP
solver build; the file records both, and a run under another flavour
is skipped rather than compared.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import scipy

from repro.forecast import ForecastConfig, ForecastProvider
from repro.heuristic import HybridScheduler
from repro.net.generators import complete_topology
from repro.sim.engine import Simulation
from repro.traffic.workload import DiurnalWorkload

PINS = Path(__file__).parent / "data" / "forecast_pins.json"
SLOTS = 48
SLOTS_PER_DAY = 12
CAPACITIES = {"quiet": 250.0, "escalating": 60.0}


def _flavour():
    return {
        "plain_float_sum": sum([0.1] * 10) == 0.9999999999999999,
        "scipy": scipy.__version__,
    }


def _run(capacity):
    topology = complete_topology(
        4, capacity=capacity, price_low=1.0, price_high=4.0, seed=3
    )
    workload = DiurnalWorkload(
        topology, max_deadline=6, peak_files=10, trough_files=1,
        slots_per_day=SLOTS_PER_DAY, seed=5,
    )
    scheduler = HybridScheduler(topology, horizon=SLOTS + 12, on_infeasible="drop")
    scheduler.attach_forecast(
        ForecastProvider(ForecastConfig(period=SLOTS_PER_DAY, horizon=SLOTS_PER_DAY))
    )
    result = Simulation(
        scheduler, workload, SLOTS, slots_per_period=SLOTS_PER_DAY
    ).run()
    return {
        "escalations": scheduler.escalations,
        "cost_per_slot_after": [slot.cost_per_slot_after for slot in result.slots],
        "forecast": result.forecast,
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(CAPACITIES))
def test_forecast_run_reproduces_the_recorded_bits(pins, name):
    recorded, here = pins["flavour"], _flavour()
    if recorded["plain_float_sum"] != here["plain_float_sum"]:
        pytest.skip("pins were recorded under a different float sum()")
    if name == "escalating" and recorded["scipy"] != here["scipy"]:
        pytest.skip(f"pins were recorded against scipy {recorded['scipy']}")
    assert _run(CAPACITIES[name]) == pins["runs"][name]


def test_pins_cover_what_they_claim(pins):
    """The quiet run never escalates; the escalating one mostly does;
    both are warm and shift volume without tripping the guard."""
    runs = pins["runs"]
    assert runs["quiet"]["escalations"] == 0
    assert runs["escalating"]["escalations"] == 36
    for run in runs.values():
        assert len(run["cost_per_slot_after"]) == SLOTS
        assert run["forecast"]["active"] and run["forecast"]["shifted_gb"] > 0
        assert run["forecast"]["guard_trips"] == 0


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(
        {
            "flavour": _flavour(),
            "runs": {name: _run(cap) for name, cap in sorted(CAPACITIES.items())},
        },
        indent=1,
    ) + "\n")
    print(f"recorded {len(CAPACITIES)} runs into {PINS}")
