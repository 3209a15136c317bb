"""The correctness gate: what must hold before any number is believed.

Per round (in the child, against the live broker): every submit got
exactly one decision and no protocol error; every admission completes
by its deadline; no ledger cell is above capacity or inside a dark
window; the charged bill equals ``sum(price * max_n)`` recomputed from
the ledger; a second broker built on the checkpoint directory recovers
to the same books.  Per workload (in ``run.py``): rounds agree exactly,
and each workload still exercises — or still bypasses — the layers it
exists for.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Dict, List, Optional

from trace import FORECAST_COUNTS, FORECAST_SPANS, LP_SPANS


def _cells(state) -> Dict[tuple, float]:
    """Every recorded ledger cell: (src, dst, slot) -> GB."""
    return {
        (src, dst, slot): volume
        for src, dst in state.ledger.used_links()
        for slot, volume in state.ledger.usage(src, dst).volumes.items()
    }


def check_round(
    submitted: List[Dict[str, Any]],
    responses: List[Dict[str, Any]],
    broker: Any,
    recovered: Optional[Any] = None,
) -> List[str]:
    """Every violated invariant of one finished round, as sentences."""
    from repro.units import VOLUME_ATOL

    failures: List[str] = []
    answers = Counter(response.get("id") for response in responses)
    for message in submitted:
        if answers[message["id"]] != 1:
            failures.append(
                f"submit {message['id']} got {answers[message['id']]} decisions"
            )
    if len(responses) != len(submitted):
        failures.append(
            f"{len(responses)} responses to {len(submitted)} submits"
        )
    for response in responses:
        if not response.get("ok"):
            failures.append(
                f"protocol error on {response.get('id')}: {response.get('error')}"
            )
        elif (
            response["decision"] == "admitted"
            and response["completion_slot"] > response["deadline_slot"]
        ):
            failures.append(
                f"{response['id']} completes at {response['completion_slot']}, "
                f"after its deadline {response['deadline_slot']}"
            )

    state = broker.state
    schedule = broker.link_schedule
    cells = _cells(state)
    for (src, dst, slot), volume in cells.items():
        capacity = state.topology.link(src, dst).capacity
        if volume > capacity + VOLUME_ATOL:
            failures.append(
                f"link {src}->{dst} slot {slot} carries {volume:.6f} GB "
                f"over capacity {capacity}"
            )
        if (
            schedule is not None
            and volume > VOLUME_ATOL
            and not schedule.is_up(src, dst, slot)
        ):
            failures.append(
                f"link {src}->{dst} carries {volume:.6f} GB in dark slot {slot}"
            )

    recomputed = 0.0
    for link in state.topology.links:
        last = state.ledger.usage(link.src, link.dst).last_slot()
        end = max(last + 1, state.period_start + 1)
        samples = state.ledger.samples_range(
            link.src, link.dst, state.period_start, end
        )
        recomputed += link.price * float(samples.max())
    charged = state.current_cost_per_slot()
    if abs(charged - recomputed) > 1e-9 * max(1.0, recomputed):
        failures.append(
            f"charged cost/slot {charged!r} != sum(price * max_n) {recomputed!r}"
        )

    if recovered is not None:
        if recovered.next_slot != broker.next_slot:
            failures.append(
                f"recovered next_slot {recovered.next_slot} != {broker.next_slot}"
            )
        if recovered.decisions != broker.decisions:
            failures.append("recovered decision log differs from the live one")
        theirs = _cells(recovered.state)
        drift = [
            key for key in cells.keys() | theirs.keys()
            if abs(cells.get(key, 0.0) - theirs.get(key, 0.0)) > VOLUME_ATOL
        ]
        if drift:
            failures.append(
                f"{len(drift)} ledger cells differ after recovery, e.g. {drift[0]}"
            )
        if not (recovered.verifier_report or {}).get("ok"):
            failures.append("the recovery verifier did not report ok")
    return failures


def books(
    submitted: List[Dict[str, Any]],
    responses: List[Dict[str, Any]],
    broker: Any,
) -> Dict[str, Any]:
    """What the round decided and what it cost — identical across rounds."""
    state = broker.state
    size = {message["id"]: message["size_gb"] for message in submitted}
    admitted = [
        r for r in responses if r.get("ok") and r["decision"] == "admitted"
    ]
    admitted_gb = sum(size[r["id"]] for r in admitted)
    bill = sum(state.banked_period_bills) + state.current_cost_per_slot() * (
        broker.next_slot - state.period_start
    )
    vector = sorted(
        (r.get("id"), r.get("decision"), r.get("completion_slot"), r.get("lane"))
        for r in responses
    )
    return {
        "submitted": len(submitted),
        "failed": len(submitted) - len(admitted),
        "admitted_gb": admitted_gb,
        "bill_per_gb": bill / admitted_gb if admitted_gb else float("nan"),
        "decision_hash": hashlib.sha256(
            json.dumps(vector).encode()
        ).hexdigest()[:16],
    }


def check_rounds(reports: List[Dict[str, Any]]) -> List[str]:
    """Rounds of one workload do identical work, so their books must match."""
    failures = []
    for key in ("decision_hash", "bill_per_gb", "failed", "submitted"):
        values = {json.dumps(report[key]) for report in reports}
        if len(values) > 1:
            failures.append(f"{key} differs across rounds: {sorted(values)}")
    return failures


def check_bypass(
    workload: Any, escalated_share: float,
    spans: Dict[str, Dict[str, float]], counts: Dict[str, int],
) -> List[str]:
    """A workload that stops exercising its layer fails the run."""
    failures = []
    name = workload.name
    if workload.escalates:
        if escalated_share < 0.8:
            failures.append(f"{name} escalated only {escalated_share:.2f} of its slots")
    else:
        if escalated_share != 0:
            failures.append(f"{name} escalated {escalated_share:.2f} of its slots")
        for stem in LP_SPANS:
            if spans[stem]["calls"]:
                failures.append(f"{name} made {spans[stem]['calls']} calls to {stem}")
    forecast_calls = {stem: spans[stem]["calls"] for stem in FORECAST_SPANS}
    forecast_calls.update((stem, counts[stem]) for stem in FORECAST_COUNTS)
    for stem, calls in forecast_calls.items():
        if workload.windows is None and calls:
            failures.append(f"{name} made {calls} calls to {stem}")
        if workload.windows is not None and not calls:
            failures.append(f"{name} never reached {stem}")
    return failures
