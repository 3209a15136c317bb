#!/usr/bin/env python3
"""The measurement spine: one command, every metric by name, gated.

``python3 spine/run.py [--seed N]`` drives the four workloads of
``workloads.py`` through the real broker path (see ``child.py``), prints
every metric ``BENCHMARK.json`` declares with its unit, runs the
correctness and bypass gates (``gate.py``) and exits nonzero if any
fails.  Rounds are fresh child processes, never two at once, interleaved
round-robin across workloads so a slow minute is shared.

``--workload W --seed N --seconds S --trace 0|1`` is the form the
benchmark driver uses: one workload, end-to-end metrics from untraced
rounds (``--trace 0``) or per-layer metrics from the traced rounds
(``--trace 1``), and one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parent
OUT = SPINE / "out"
HISTORY = SPINE / "history.jsonl"

sys.path.insert(0, str(SPINE))

import gate  # noqa: E402
from calibrate import REF_KERNEL_S  # noqa: E402
from trace import COUNTS, SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CATALOGUE["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CATALOGUE["per_layer"]}

#: Metrics that are books, not clocks: two runs must agree exactly.
EXACT = ("bill_per_gb", "rejected_share")

#: Timed work in one full-scale round, by construction of the workloads
#: (3.5-4.2 calibrated seconds measured); ``--seconds`` buys whole rounds.
ROUND_SECONDS = 4

#: A child takes 5-10 s; the driver allows a whole run 180.
CHILD_TIMEOUT_S = 50


class RoundFailed(Exception):
    """A child exited nonzero or printed no report."""


def run_child(**args: Any) -> Dict[str, Any]:
    """One fresh process, one round (or replay); returns its report."""
    workdir = OUT / "round"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        done = subprocess.run(
            [sys.executable, str(SPINE / "child.py"), json.dumps(args)],
            cwd=workdir, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RoundFailed(f"child {args} exited {done.returncode}")
    return json.loads(lines[-1])


# -- from reports to metrics --------------------------------------------------


def _p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def end_to_end(rounds: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics of one workload: calibrated value and raw."""
    pooled = [ms for r in rounds for ms in r["latency_ms"]]
    pooled_raw = [ms for r in rounds for ms in r["latency_raw_ms"]]
    median = statistics.median
    return {
        "setup_s": {
            "value": median(r["setup_s"] for r in rounds),
            "raw": median(r["setup_raw_s"] for r in rounds),
        },
        "decided_per_s": {
            "value": median(r["decided"] / r["timed_s"] for r in rounds),
            "raw": median(r["decided"] / r["timed_raw_s"] for r in rounds),
        },
        "request_ms_p50": {"value": median(pooled), "raw": median(pooled_raw)},
        "request_ms_p95": {"value": _p95(pooled), "raw": _p95(pooled_raw)},
        "bill_per_gb": {"value": rounds[0]["bill_per_gb"]},
        "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in rounds)},
    }


def per_layer(
    rounds: List[Dict[str, Any]],
    spans: Dict[str, Any],
    counts: Dict[str, Any],
    replay: Optional[Dict[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """The per-layer metrics of one workload."""
    median = statistics.median
    first = rounds[0]
    values = {
        "rejected_share": first["failed"] / first["submitted"],
        "service.intake.wait_ms_p50": median(r["wait_ms_p50"] for r in rounds),
        "service.slotloop.decision_ms_p50": median(
            r["decision_ms_p50"] for r in rounds
        ),
        "heuristic.hybrid.escalated_share": first["escalated_share"],
        "service.wal.bytes_per_request": first["wal_bytes_per_request"],
        "service.store.snapshot_kb_last": first["snapshot_kb_last"],
        "service.store.recover_ms": median(r["recover_ms"] for r in rounds),
    }

    decided = spans["decided"]
    per_request_us = lambda seconds: seconds / decided * 1e6
    table = spans["spans"]
    for stem in SPANS:
        values[f"{stem}.self_us"] = per_request_us(table[stem]["self_s"])
    for stem in ("service.wal.fsync", "obs.metrics.emit"):
        values[f"{stem}.calls"] = table[stem]["calls"] / decided
    for stem in COUNTS:
        values[f"{stem}.calls"] = counts["counts"][stem] / counts["decided"]
    values["driver.self_us"] = per_request_us(spans["driver_s"])
    attributed_s = table["_top_level"]["self_s"] + spans["driver_s"]
    values["service.server.unattributed_us"] = per_request_us(
        spans["timed_s"] - attributed_s
    )

    escalations = table["core.scheduler.plan_slot"]["calls"]
    builds = table["core.formulation.build_postcard_model"]["calls"]
    values["core.formulation.builds_per_escalation"] = (
        builds / escalations if escalations else 0.0
    )
    shapes = spans["lp_shapes"]
    values["lp.compile.rows_per_solve"] = (
        statistics.fmean(rows for rows, _ in shapes) if shapes else 0.0
    )
    values["lp.compile.nnz_per_solve"] = (
        statistics.fmean(nnz for _, nnz in shapes) if shapes else 0.0
    )

    # Bill quality is replayed on lp_pressure only; 0 = not measured here.
    for lane, scheduler in (("hybrid", None), ("fastlane", "heuristic")):
        name = f"heuristic.{lane}.bill_ratio_vs_lp"
        if replay is None:
            values[name] = 0.0
            continue
        bills = replay["bill_per_gb"]
        numerator = bills[scheduler] if scheduler else first["bill_per_gb"]
        values[name] = numerator / bills["postcard"]

    untraced_s = median(r["timed_s"] for r in rounds)
    values["trace.overhead_share"] = (spans["timed_s"] - untraced_s) / untraced_s
    values["trace.attributed_share"] = attributed_s / spans["timed_s"]
    return {name: {"value": value} for name, value in values.items()}


# -- running ------------------------------------------------------------------


def measure(
    names: List[str], seed: int, seconds: float, smoke: bool,
    want_end_to_end: bool, want_layers: bool,
) -> Dict[str, Any]:
    """Run the rounds, gate them, and fold them into metrics per workload."""
    if smoke or not want_end_to_end:
        passes = 1  # one untraced round is the traced rounds' yardstick
    else:
        passes = max(1, round(seconds / ROUND_SECONDS))
    rounds: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    failures: List[str] = []
    for _ in range(passes):
        for name in names:  # round-robin: w1r1, w2r1, ..., w1r2, ...
            rounds[name].append(
                run_child(workload=name, seed=seed, smoke=smoke, trace="")
            )

    result: Dict[str, Any] = {"workloads": {}, "attempted": 0, "failed": 0}
    for name in names:
        reports = list(rounds[name])
        metrics: Dict[str, Dict[str, float]] = {}
        if want_end_to_end:
            metrics.update(end_to_end(rounds[name]))
        if want_layers:
            spans = run_child(workload=name, seed=seed, smoke=smoke, trace="spans")
            counts = run_child(workload=name, seed=seed, smoke=smoke, trace="counts")
            replay = None
            if WORKLOADS[name].escalates:
                replay = run_child(workload=name, seed=seed, smoke=smoke, replay=True)
            reports += [spans, counts]
            metrics.update(per_layer(rounds[name], spans, counts, replay))
            if not smoke:  # three slots cannot say what a workload exercises
                failures += gate.check_bypass(
                    WORKLOADS[name], rounds[name][0]["escalated_share"],
                    spans["spans"], counts["counts"],
                )
        for report in reports:
            failures += [f"{name}: {f}" for f in report["failures"]]
        failures += [f"{name}: {f}" for f in gate.check_rounds(reports)]
        result["attempted"] += sum(r["submitted"] for r in reports)
        result["failed"] += sum(r["failed"] for r in reports)
        result["workloads"][name] = {
            "metrics": metrics,
            "rounds": len(rounds[name]),
            "requests": sum(r["decided"] for r in rounds[name]),
            "slots": sum(r["slots"] for r in rounds[name]),
            "kernel_s": statistics.median(r["kernel_s"] for r in reports),
        }
    result["failures"] = failures
    return result


def print_table(result: Dict[str, Any], seed: int) -> None:
    """Every metric by name with its unit: ``workload name value unit``."""
    for name, entry in result["workloads"].items():
        print(
            f"# {name}: seed {seed}, {entry['rounds']} untraced round(s); "
            f"request_ms percentiles pool {entry['requests']} requests "
            f"from {entry['slots']} slots; kernel {entry['kernel_s'] * 1e3:.2f} ms "
            f"(reference {REF_KERNEL_S * 1e3:.2f} ms)"
        )
        for metric, cell in entry["metrics"].items():
            unit = (END_TO_END.get(metric) or PER_LAYER[metric])["unit"]
            raw = f"  (raw wall {cell['raw']:.6g})" if "raw" in cell else ""
            print(f"{name:18s} {metric:44s} {cell['value']:14.6g} {unit}{raw}")
    for failure in result["failures"]:
        print(f"GATE FAILED: {failure}")


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """``--repeat-check``: every end-to-end metric within its own bound."""
    disagreements = []
    for name, entry in first["workloads"].items():
        again = second["workloads"][name]["metrics"]
        for metric in (*END_TO_END, "rejected_share"):
            if metric not in again:
                continue  # --trace 0 or 1 measured one kind only
            a, b = entry["metrics"][metric]["value"], again[metric]["value"]
            if metric in EXACT:
                if a != b:
                    disagreements.append(f"{name} {metric}: {a!r} != {b!r}")
            elif abs(b - a) / a > END_TO_END[metric]["bound"]:
                disagreements.append(
                    f"{name} {metric}: {a:.6g} vs {b:.6g} ({abs(b - a) / a:.1%} "
                    f"apart, bound {END_TO_END[metric]['bound']:.1%})"
                )
    return disagreements


def record(result: Dict[str, Any], seed: int) -> None:
    """Append this run to ``history.jsonl``: one schema, a trajectory."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    line = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rev": revision,
        "seed": seed,
        "ref_kernel_s": REF_KERNEL_S,
        "kernel_s": statistics.median(
            entry["kernel_s"] for entry in result["workloads"].values()
        ),
        "metrics": {
            name: {m: cell["value"] for m, cell in entry["metrics"].items()}
            for name, entry in result["workloads"].items()
        },
    }
    with HISTORY.open("a") as history:
        history.write(json.dumps(line, separators=(",", ":")) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CATALOGUE["run_seconds"],
                        help=f"untraced timed seconds per workload, in rounds "
                             f"of about {ROUND_SECONDS} s")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of a few slots per workload")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the whole suite twice; fail unless the runs "
                             "agree within bounds")
    parser.add_argument("--record", action="store_true",
                        help=f"append the result to {HISTORY.name}")
    options = parser.parse_args(argv)

    names = [options.workload] if options.workload else list(WORKLOADS)
    want_end_to_end = options.trace != 1
    want_layers = options.trace != 0
    run = lambda: measure(
        names, options.seed, options.seconds, options.smoke,
        want_end_to_end, want_layers,
    )
    try:
        result = run()
        print_table(result, options.seed)
        failures = list(result["failures"])
        if options.repeat_check:
            second = run()
            print("# second run")
            print_table(second, options.seed)
            disagreements = compare(result, second)
            failures += second["failures"] + disagreements
            for line in disagreements:
                print(f"REPEAT CHECK FAILED: {line}")
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print(f"spine: {exc}", file=sys.stderr)
        return 2
    if options.record:
        record(result, options.seed)

    if options.workload:
        wanted = END_TO_END if want_end_to_end else PER_LAYER
        metrics = result["workloads"][options.workload]["metrics"]
        print(json.dumps({
            "correct": not failures,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metrics[name]["value"], "unit": spec["unit"]}
                for name, spec in wanted.items()
            },
        }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
