"""Bulk background transfers over leftover bandwidth (objective (11)).

The cloud provider has already paid for each link's charged volume
``X_ij(t-1)``; any slot where a link carries less than that is free
capacity.  Following Sec. VI (and NetStitcher), bulk delay-tolerant
files — backups, data migration — should ride exclusively on this
leftover bandwidth, delivering as much volume as possible within each
file's deadline without increasing any link's bill.

Interpretation note: the paper states objective (11) "with all
constraints remaining the same", but keeping the exact-delivery
constraints (8) would make the objective a constant.  The sensible (and
NetStitcher-consistent) reading implemented here relaxes delivery to
*at most* ``F_k`` per file and maximizes the total delivered volume;
files may be partially transferred when free bandwidth is scarce.

What this module owns on top of
:func:`repro.core.formulation.build_postcard_model`: each file's supply
is a delivered volume ``y_k in [0, F_k]``, every charged volume ``X_ij``
is fixed at what is already paid, so the charge rows cap each link-slot
at its paid headroom ``X_ij - B_ij(n)``, and the objective is the
weighted ``sum(y_k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SchedulingError
from repro.core.formulation import build_postcard_model
from repro.core.schedule import TransferSchedule
from repro.core.state import NetworkState
from repro.lp import solve_lp
from repro.traffic.spec import TransferRequest


@dataclass
class BulkTransferResult:
    """Outcome of a bulk-throughput maximization."""

    schedule: TransferSchedule
    #: Delivered GB per request id (<= the request's size).
    delivered: Dict[int, float]
    #: Total delivered GB (the optimal objective (11) value).
    total_delivered: float


def maximize_bulk_throughput(
    state: NetworkState,
    requests: List[TransferRequest],
    weights: Optional[Dict[int, float]] = None,
) -> BulkTransferResult:
    """Maximize (weighted) delivered bulk volume over paid headroom.

    ``weights`` maps request ids to objective weights (default 1.0
    each); weighting lets callers prioritize, say, compliance backups
    over cache warmups.
    """
    if not requests:
        raise SchedulingError("maximize_bulk_throughput needs at least one request")

    built = build_postcard_model(state, requests)
    problem = built.supply_columns(
        np.ones(len(requests)), [r.size_gb for r in requests],
        [(weights or {}).get(r.request_id, 1.0) for r in requests],
    )
    # Free capacity only: no X_ij may rise above what is already paid.
    paid = list(built.charge_columns.values())
    problem.bounds[paid, 1] = problem.bounds[paid, 0]
    solution = solve_lp(problem)

    volumes = solution.x[built.num_variables:].tolist()
    delivered = {r.request_id: y for r, y in zip(requests, volumes)}
    return BulkTransferResult(
        schedule=built.schedule(solution),
        delivered=delivered,
        total_delivered=sum(delivered.values()),
    )
