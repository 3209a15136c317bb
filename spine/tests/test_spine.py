"""Tests of the benchmark itself, at ``--smoke`` scale.

Run with ``python -m pytest spine/tests -q`` (not in tier-1 ``testpaths``).
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parents[1]
ROOT = SPINE.parent
sys.path[:0] = [str(SPINE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import trace as spine_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {
    m["name"]: m["unit"] for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]
}
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)(\s+\(raw wall .*\))?$")


def _spine(*flags):
    done = subprocess.run(
        [sys.executable, str(SPINE / "run.py"), *flags],
        capture_output=True, text=True, timeout=120,
    )
    rows = {}
    for line in done.stdout.splitlines():
        match = ROW.match(line)
        if match and match.group(1) in WORKLOADS:
            workload, name, value, unit = match.groups()[:4]
            rows[(workload, name)] = (float(value), unit)
    return done, rows


@pytest.fixture(scope="module")
def smoke():
    return _spine("--smoke")


def test_every_declared_metric_is_printed_with_its_unit_and_no_other(smoke):
    done, rows = smoke
    assert done.returncode == 0, done.stdout + done.stderr
    assert [w["name"] for w in CATALOGUE["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        printed = {name: unit for (w, name), (_, unit) in rows.items() if w == workload}
        assert printed == DECLARED
    for name in DECLARED:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for workload in WORKLOADS:
        assert rows[(workload, "rejected_share")][0] == 0
        for metric in CATALOGUE["end_to_end"]:
            assert rows[(workload, metric["name"])][0] > 0


def test_two_smoke_runs_bill_the_same(smoke):
    _, first = smoke
    done, second = _spine("--smoke", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in WORKLOADS:
        assert second[(workload, "bill_per_gb")] == first[(workload, "bill_per_gb")]


def test_driver_form_ends_with_one_json_object():
    done, _ = _spine(
        "--workload", "durable_trickle", "--seed", "7", "--seconds", "1",
        "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: cell["unit"] for name, cell in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"]}


def test_self_time_never_exceeds_the_span_and_sums_to_the_wall():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]; and a second root.
    columns = {
        "names": ["root", "a", "b", "c"],
        "name_id": [0, 1, 2, 3, 0],
        "start": [0.0, 1.0, 2.0, 5.0, 11.0],
        "end": [10.0, 4.0, 3.0, 9.0, 12.0],
        "parent": [-1, 0, 1, 0, -1],
    }
    own = spine_trace.self_times(columns)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    for index, self_s in enumerate(own):
        assert 0 <= self_s <= columns["end"][index] - columns["start"][index]
    table = spine_trace.aggregate(columns)
    round_wall = 12.0
    assert sum(own) == table["_top_level"]["self_s"] == 11.0 <= round_wall
    assert table["root"] == {"calls": 2, "self_s": 4.0}


@pytest.fixture()
def small_round():
    """A broker that decided two slots, and the responses it gave."""
    from repro.service.config import ServiceConfig
    from repro.service.slotloop import TransferBroker
    from workloads import COMMON_CONFIG, generate

    workload = WORKLOADS["durable_trickle"]
    batches = generate(workload, seed=5, slots=2)
    broker = TransferBroker(ServiceConfig(**COMMON_CONFIG))
    responses = []
    for batch in batches:
        for message in batch:
            broker.submit(message)
        responses += [
            {"ok": True, "op": "submit", **record}
            for _, record in broker.process_slot()
        ]
    submitted = [message for batch in batches for message in batch]
    return submitted, responses, broker


def test_gate_passes_an_honest_round(small_round):
    assert gate.check_round(*small_round) == []


def test_gate_catches_a_dropped_decision(small_round):
    submitted, responses, broker = small_round
    failures = gate.check_round(submitted, responses[1:], broker)
    assert any("got 0 decisions" in failure for failure in failures)


def test_gate_catches_a_missed_deadline(small_round):
    submitted, responses, broker = small_round
    late = dict(responses[0], completion_slot=responses[0]["deadline_slot"] + 1)
    failures = gate.check_round(submitted, [late] + responses[1:], broker)
    assert any("after its deadline" in failure for failure in failures)


def test_gate_catches_a_cell_over_capacity_and_the_bill_it_hides(small_round):
    submitted, responses, broker = small_round
    broker.state.ledger.record(0, 1, 0, 1000.0)
    failures = gate.check_round(submitted, responses, broker)
    assert any("over capacity" in failure for failure in failures)
    assert any("sum(price * max_n)" in failure for failure in failures)


def test_a_gate_failure_makes_the_run_exit_nonzero(monkeypatch, capsys):
    honest = run.run_child(
        workload="durable_trickle", seed=1, smoke=True, trace=""
    )
    assert honest["failures"] == []

    def dropped(**args):
        report = copy.deepcopy(honest)
        report["failures"] = ["submit r000000 got 0 decisions"]
        return report

    flags = ["--workload", "durable_trickle", "--smoke", "--trace", "0"]
    monkeypatch.setattr(run, "run_child", lambda **args: copy.deepcopy(honest))
    assert run.main(flags) == 0
    monkeypatch.setattr(run, "run_child", dropped)
    assert run.main(flags) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_rounds_that_disagree_fail_the_workload():
    a = {"decision_hash": "x", "bill_per_gb": 1.0, "failed": 0, "submitted": 8}
    assert gate.check_rounds([a, dict(a)]) == []
    assert gate.check_rounds([a, dict(a, bill_per_gb=1.0000001)])
    assert gate.check_rounds([a, dict(a, decision_hash="y")])
