"""Soft deadlines: lateness as a priced constraint instead of a hard one.

The paper's constraint (5) is hard — miss the window, and the problem
is infeasible.  Real SLAs are softer: delivering a backup an hour late
costs goodwill (or contractual penalty), not infinity.  This module
formulates that variant: each file may run up to ``extension`` slots
past its deadline, paying ``lateness_penalty`` dollars per GB per late
slot; the optimizer then trades WAN cost against SLA cost.

What this module owns on top of
:func:`repro.core.formulation.build_postcard_model`: each file's window
reaches ``extension`` slots past its deadline (so its demand sits at the
extended sink layer), and the objective is the bill plus the lateness
terms on the columns that arrive late.

With ``extension=0`` this is exactly the hard-deadline LP of
:func:`repro.core.formulation.build_postcard_model`; with a generous
extension and a steep penalty it behaves identically on feasible
instances but *degrades gracefully* on overloaded ones — the use case
that makes the drop policy unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.core.formulation import PostcardModel, build_postcard_model
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.lp import Solution, solve_lp
from repro.traffic.spec import TransferRequest


@dataclass
class SoftDeadlineResult:
    """A solved soft-deadline round."""

    schedule: TransferSchedule
    solution: Solution
    #: GB-slots of lateness per request id (0.0 = fully on time).
    lateness: Dict[int, float]

    @property
    def total_lateness(self) -> float:
        return sum(self.lateness.values())


def build_soft_deadline_model(
    state: NetworkState,
    requests: List[TransferRequest],
    extension: int,
    lateness_penalty: float,
) -> Tuple[PostcardModel, np.ndarray]:
    """Assemble the lateness-priced LP; see :func:`solve_soft_deadline`.

    Returns the model and, per flow column, the slots by which it
    delivers late (0: on time, or not an arrival at the destination).
    """
    if not requests:
        raise SchedulingError("need at least one request")
    if extension < 0:
        raise SchedulingError("extension must be non-negative")
    if lateness_penalty < 0:
        raise SchedulingError("lateness_penalty must be non-negative")

    built = build_postcard_model(state, [
        replace(r, deadline_slots=r.deadline_slots + extension) for r in requests
    ])
    _, _, dst, slot, transit = built.flow_columns
    destination, deadline = _per_column(built, lambda r: (
        r.destination, r.release_slot + r.deadline_slots - extension
    ))
    # Arrival at the destination after the hard deadline pays per GB
    # per late slot.
    late = np.where(transit & (dst == destination), slot + 1 - deadline, 0).clip(0)
    if lateness_penalty > 0:
        arrives_late = np.flatnonzero(late)
        built.model.c[arrives_late] = lateness_penalty * late[arrives_late]
    return built, late


def _per_column(built: PostcardModel, facts) -> np.ndarray:
    """``facts(request)`` (a tuple) of each flow column's file, as arrays."""
    by_id = {r.request_id: facts(r) for r in built.requests}
    return np.array([by_id[rid] for rid in built.flow_columns[0].tolist()]).T


def solve_soft_deadline(
    state: NetworkState,
    requests: List[TransferRequest],
    extension: int = 2,
    lateness_penalty: float = 10.0,
) -> SoftDeadlineResult:
    """Optimize with priced lateness; returns schedule + lateness report.

    The returned schedule may move data after file deadlines — audit it
    with ``schedule.validate(requests, deadline_slack=extension)``.
    """
    built, late = build_soft_deadline_model(
        state, requests, extension, lateness_penalty
    )
    solution = solve_lp(built.model)

    request_id, src, _, _, transit = built.flow_columns
    (destination,) = _per_column(built, lambda r: (r.destination,))
    lateness = dict.fromkeys((r.request_id for r in requests), 0.0)
    for column in np.flatnonzero(late).tolist():
        lateness[int(request_id[column])] += int(late[column]) * float(solution.x[column])
    return SoftDeadlineResult(
        # Holdover at a file's own destination is delivered data riding
        # to the (extended) sink layer — bookkeeping, not storage.
        schedule=built.schedule(solution, transit | (src != destination)),
        solution=solution,
        lateness={rid: max(0.0, v) for rid, v in lateness.items()},
    )
