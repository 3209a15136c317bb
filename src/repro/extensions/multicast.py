"""Multicast transfers with shared upstream traffic.

Sec. III handles one-to-many replication "by introducing a separate
file for each source-destination pair" — upstream links then carry one
copy *per destination*.  Real replication fans out: a link common to
several destinations' routes only needs to carry the data once, with
duplication at the branch datacenter.

On the time-expanded graph this is the classic multicast LP relaxation:
per destination ``d`` a unit flow ``f_d`` from the source layer to
``d``'s deadline layer, plus a shared *occupancy* ``u_arc`` with

    u_arc >= f_d,arc      for every destination,

and the capacity and charge rows of the Postcard model
(:func:`repro.core.formulation.build_postcard_model`, one file per
destination) written against ``u`` instead of the per-destination sum.
What this module owns is that occupancy and the share rows.  At any
optimum ``u`` is the pointwise max, i.e. the volume a replicating relay
actually transmits.  (This is a relaxation of Steiner-style integral
multicast, exact for the single-source case with fractional splitting
— which is the regime the paper's model already lives in.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence

import numpy as np

from repro.core.formulation import build_postcard_model
from repro.core.schedule import ScheduleEntry, TransferSchedule
from repro.core.state import NetworkState
from repro.lp import Solution, row_matrix, solve_lp
from repro.traffic.spec import expand_multicast
from repro.units import VOLUME_ATOL


@dataclass
class MulticastResult:
    """A solved multicast round."""

    #: Billable transmissions: what each link actually carries (the
    #: shared occupancy), as schedule entries under a synthetic id.
    schedule: TransferSchedule
    solution: Solution
    #: Cost per interval of the whole network after this round.
    cost_per_slot: float
    #: Completion slot per destination id.
    completions: Dict[int, int]


def solve_multicast(
    state: NetworkState,
    source: int,
    destinations: Sequence[int],
    size_gb: float,
    deadline_slots: int,
    release_slot: int = 0,
) -> MulticastResult:
    """Optimize one replication job with shared upstream traffic."""
    requests = expand_multicast(
        source, list(destinations), size_gb, deadline_slots, release_slot
    )
    built = build_postcard_model(state, requests)
    problem = built.model
    _, src, dst, slot, transit = built.flow_columns
    num_columns = problem.num_variables
    # One occupancy column per transit cell, after the model's columns.
    movers = np.flatnonzero(transit)
    cells, cell_of = np.unique(
        np.column_stack((slot, src, dst))[movers], axis=0, return_inverse=True
    )
    occupancy = np.full(num_columns, -1, dtype=np.int64)
    occupancy[movers] = num_columns + cell_of.ravel()
    # A row over a cell's movers (its capacity and charge rows) loads the
    # cell's occupancy once instead of every destination's flow, with the
    # movers' coefficient; each mover gets a share row f - u <= 0.
    row, col, data = problem.a_ub.coo()
    on_move = occupancy[col] >= 0
    loads, first = np.unique(
        np.stack((row[on_move], occupancy[col[on_move]])), axis=1, return_index=True,
    )
    share = problem.num_inequalities + np.arange(len(movers))
    rows = (row[~on_move], loads[0], share, share)
    cols = (col[~on_move], loads[1], movers, occupancy[movers])
    values = (data[~on_move], data[on_move][first],
              np.ones(len(movers)), -np.ones(len(movers)))
    width = num_columns + len(cells)
    solution = solve_lp(replace(
        problem,
        c=np.append(problem.c, np.zeros(len(cells))),
        a_ub=row_matrix(np.concatenate(rows), np.concatenate(cols), np.concatenate(values),
                        (share.size + problem.num_inequalities, width)),
        b_ub=np.append(problem.b_ub, np.zeros(len(movers))),
        a_eq=replace(problem.a_eq, shape=(problem.num_equalities, width)),
        bounds=np.vstack([problem.bounds, np.tile((0.0, np.inf), (len(cells), 1))]),
    ))

    # The billable schedule is the occupancy, attributed to the first
    # destination's request id (a synthetic "multicast job" id).
    job_id = requests[0].request_id
    schedule = TransferSchedule(
        ScheduleEntry(job_id, a, b, n, volume)
        for (n, a, b), volume in zip(cells.tolist(), solution.x[num_columns:].tolist())
        if volume > VOLUME_ATOL
    )

    flows = built.schedule(solution)
    completions = {}
    for request in requests:
        delivered = flows.completion_slot(request)
        if delivered is not None:
            completions[request.destination] = delivered

    return MulticastResult(
        schedule=schedule,
        solution=solution,
        cost_per_slot=solution.objective,
        completions=completions,
    )
