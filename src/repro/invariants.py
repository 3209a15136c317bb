"""The guarantees every run must keep, stated once.

The paper's constraints (7)-(10) promise that every admitted file arrives
by its deadline ``T_k``, that no link-slot carries more than its capacity,
that flow is conserved through holdover arcs, and that the bill equals
``sum(a_ij * max_n)`` of what the ledger recorded.  The broker adds one
decision per id, no volume in a dark window, and a recovered broker equal
to the live one.  Each check returns the violated invariants as sentences.

Flow conservation is a property of a schedule, which lists transmissions
only: :meth:`~repro.core.schedule.TransferSchedule.validate` checks it as
a running balance per datacenter (waiting implied), with per-slot capacity
up to :func:`cell_tolerance` and full delivery, on every
:meth:`~repro.core.state.NetworkState.commit`.  The simulation's audit
runs :func:`cells` and :func:`deadlines`; a broker's resume runs the whole
kernel through :func:`verify_recovery`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.errors import RecoveryVerifyError
from repro.obs import registry as obs
from repro.units import VOLUME_ATOL


def cell_tolerance(capacity: float) -> float:
    """How far a ledger cell may read above ``capacity`` (summed floats)."""
    return max(VOLUME_ATOL, 1e-6 * capacity)


def summary(failures: List[str], limit: int = 3) -> str:
    """The first ``limit`` sentences, and how many more there are."""
    more = f" (and {len(failures) - limit} more)" if len(failures) > limit else ""
    return "; ".join(failures[:limit]) + more


def cells(state) -> List[str]:
    """No ledger cell above its link's capacity, and no volume in a dark
    slot of ``state.link_schedule``."""
    failures = []
    schedule = getattr(state, "link_schedule", None)
    for src, dst in state.ledger.used_links():
        capacity = state.topology.link(src, dst).capacity
        for slot, volume in state.ledger.usage(src, dst).volumes.items():
            where = f"link ({src},{dst}) carries {volume:.6f} GB at slot {slot}"
            if volume > capacity + cell_tolerance(capacity):
                failures.append(f"{where}, over capacity {capacity:.6f}")
            dark = schedule is not None and not schedule.is_up(src, dst, slot)
            if dark and volume > VOLUME_ATOL:
                failures.append(f"{where}, outside its availability windows")
    return failures


def deadlines(completions: Mapping[Any, int], deadlines: Mapping[Any, int]) -> List[str]:
    """Every file ``deadlines`` names completes, at or before its last slot
    ``T_k`` there; ``completions`` maps files to completion slots, as a
    :class:`~repro.core.state.NetworkState`'s ``completions`` does."""
    failures = []
    for key, last in deadlines.items():
        done = completions.get(key)
        if done is None:
            failures.append(f"file {key} never completes (deadline {last})")
        elif done > last:
            failures.append(f"file {key} completes at slot {done}, after its deadline {last}")
    return failures


def bill(state) -> List[str]:
    """Each link's charged ``X_ij`` equals its ledger peak over the current
    period, and the bill per slot equals ``sum(a_ij * X_ij)``."""
    failures = []
    recomputed = 0.0
    for link in state.topology.links:
        charged = state.charged_volume(link.src, link.dst)
        # The window start_new_period re-seeds from: any number of rollovers holds.
        peak = state.ledger.peak_in_range(
            link.src, link.dst, state.period_start, state.period_start + state.horizon
        )
        if abs(charged - peak) > VOLUME_ATOL:
            failures.append(
                f"link ({link.src},{link.dst}) is charged {charged:.9f} GB, "
                f"but its period peak is {peak:.9f} GB"
            )
        recomputed += link.price * peak
    billed = state.current_cost_per_slot()
    if abs(billed - recomputed) > 1e-9 * max(1.0, recomputed):
        failures.append(f"charged cost/slot {billed!r} != sum(price * max_n) {recomputed!r}")
    return failures


def decisions(broker) -> List[str]:
    """The decision log agrees with the tallies; no id is both decided and
    pending (it would be charged twice); the clock is past every committed
    slot (a rewound one re-bills); the request-id watermark is above every
    restored completion (new ids cannot collide); the queue is in bound."""
    from repro.traffic.spec import peek_next_request_id

    log, failures = broker.decisions, []
    decided = broker.counts["admitted"] + broker.counts["rejected"]
    if decided != len(log):
        failures.append(f"{len(log)} decisions, but tallies admitted+rejected={decided}")
    overlap = set(broker.queue.pending_ids()) & set(log)
    if overlap:
        failures.append(f"ids both decided and pending: {sorted(overlap)}")
    last = max((rec.get("slot", -1) for rec in log.values()), default=-1)
    if broker.next_slot <= last or broker.next_slot < 0:
        failures.append(f"next_slot={broker.next_slot}, last committed decision slot={last}")
    highest, watermark = max(broker.state.completions, default=-1), peek_next_request_id()
    if watermark <= highest:
        failures.append(f"next request id {watermark} vs highest restored completion id {highest}")
    if broker.queue.depth > broker.config.max_queue:
        failures.append(f"queue depth {broker.queue.depth} > max_queue {broker.config.max_queue}")
    return failures


def books(broker) -> Dict[str, Any]:
    """A broker's comparable face: decisions, ledger cells (as a snapshot
    holds them), ``X_ij``, bill and clock."""
    from repro.core.checkpoint import state_to_payload

    state = state_to_payload(broker.state)
    return {
        "decisions": {cid: rec["decision"] for cid, rec in broker.decisions.items()},
        "charged": state["charged"],
        "ledger": state["usage"],
        "cost_per_slot": round(broker.state.current_cost_per_slot(), 9),
        "next_slot": broker.next_slot,
    }


def twin(live, other) -> List[str]:
    """``other`` keeps the same :func:`books` as ``live``."""
    ours, theirs = books(live), books(other)
    return [
        f"{key} differ from the live broker's" for key in ours if ours[key] != theirs[key]
    ]


def verify_recovery(broker, strict: bool = True) -> Dict[str, Any]:
    """Run the whole kernel on a (typically resumed) broker.

    Returns ``{"ok": bool, "checks": {name: {"ok", "detail"}}}``, one check
    per kernel function.  With ``strict=True`` (the default) a failed check
    raises :class:`RecoveryVerifyError` naming every violated invariant:
    serving from bad books must not happen.
    """
    # Records restored from a version-2 snapshot carry no slots to judge,
    # and a file still in flight (a replanner's) no completion yet.
    admitted = {
        cid: rec for cid, rec in broker.decisions.items()
        if rec["decision"] == "admitted" and rec.get("completion_slot") is not None
    }
    found = {
        "cells": cells(broker.state),
        "deadlines": deadlines(
            {cid: rec["completion_slot"] for cid, rec in admitted.items()},
            {cid: rec["deadline_slot"] for cid, rec in admitted.items()},
        ),
        "bill": bill(broker.state),
        "decisions": decisions(broker),
    }
    checks = {
        name: {"ok": not failures, "detail": summary(failures) or "holds"}
        for name, failures in found.items()
    }
    ok = all(check["ok"] for check in checks.values())
    obs.counter("service.recovery.verified" if ok else "service.recovery.failed")
    if strict and not ok:
        failed = ", ".join(f"{name} ({c['detail']})" for name, c in checks.items() if not c["ok"])
        raise RecoveryVerifyError(f"post-recovery invariant checks failed: {failed}")
    return {"ok": ok, "checks": checks}
