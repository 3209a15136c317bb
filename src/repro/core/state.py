"""The online controller's view of the network at time t.

Because Postcard is online, each slot's optimization must respect what
earlier slots already committed: future link capacity consumed by
in-flight transfers, and the charged volume ``X_ij(t-1)`` each link has
already accumulated (traffic up to that peak is "already paid" for the
rest of the charging period).  :class:`NetworkState` tracks both, on top
of a :class:`~repro.charging.ledger.TrafficLedger`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.charging.ledger import TrafficLedger
from repro.charging.schemes import ChargingScheme
from repro.core.schedule import TransferSchedule
from repro.net.topology import LinkKey, Topology
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest


class NetworkState:
    """Committed traffic, paid volumes, and completion records."""

    def __init__(self, topology: Topology, horizon: int):
        self.topology = topology
        self.horizon = horizon
        self.ledger = TrafficLedger(topology, horizon)
        #: X_ij(t-1): the running per-link peak slot volume, including
        #: volumes committed to *future* slots by in-flight transfers.
        self._charged: Dict[LinkKey, float] = {
            link.key: 0.0 for link in topology.links
        }
        #: Completed requests: request_id -> completion slot.
        self.completions: Dict[int, int] = {}
        #: Requests that could not be scheduled (dropped by policy).
        self.rejected: List[TransferRequest] = []
        #: GB-slots of intermediate storage committed so far.
        self.storage_used: float = 0.0
        #: Optional :class:`repro.sim.faults.FaultModel`; *visibly*
        #: downed link-slots (announced outages, or surprise outages
        #: already revealed by execution) report zero residual
        #: capacity, so every scheduler transparently routes around
        #: outages it is allowed to know about.  Surprise outages stay
        #: invisible here until the engine detects them mid-run.
        self.fault_model = None
        #: Optional :class:`repro.net.schedule.LinkSchedule`; link-slots
        #: outside a scheduled link's availability windows report zero
        #: residual capacity, so every scheduler routes — and
        #: time-shifts — around dark windows through this one gate.
        self.link_schedule = None
        #: Slot at which the current charging period began.
        self.period_start: int = 0
        #: Bills of completed charging periods (dollars each).
        self.banked_period_bills: List[float] = []

    # -- inputs to the optimizer -----------------------------------------

    def charged_volume(self, src: int, dst: int) -> float:
        """X_ij(t-1) for one link."""
        return self._charged[(src, dst)]

    def charged_snapshot(self) -> Dict[LinkKey, float]:
        return dict(self._charged)

    def committed_volume(self, src: int, dst: int, slot: int) -> float:
        """B_ij(n): volume already committed on (src, dst) at slot n."""
        return self.ledger.volume(src, dst, slot)

    def residual_capacity(self, src: int, dst: int, slot: int) -> float:
        """Capacity left for new traffic on (src, dst) during slot n
        (zero while the link is *visibly* down, if a fault model is
        attached — surprise outages are not knowable here — and zero
        outside a link schedule's availability windows)."""
        if self.fault_model is not None and self.fault_model.is_visible_down(
            src, dst, slot
        ):
            return 0.0
        if self.link_schedule is not None and not self.link_schedule.is_up(
            src, dst, slot
        ):
            return 0.0
        return self.ledger.residual_capacity(src, dst, slot)

    def link_rows(
        self, src: int, dst: int, start: int, end: int
    ) -> Tuple[List[float], List[float]]:
        """:meth:`residual_capacity` and :meth:`committed_volume` of one
        link over the slots ``[start, end)``, as two lists: the link's
        volume map is read once per cell, its capacity once and the
        schedule's availability once (:meth:`LinkSchedule.up_mask`)."""
        volumes = self.ledger.usage(src, dst).volumes
        committed = [volumes.get(n, 0.0) for n in range(start, end)]
        capacity = self.topology.link(src, dst).capacity
        faults, schedule = self.fault_model, self.link_schedule
        up = -1 if schedule is None else schedule.up_mask(src, dst, start, end)
        residual = []
        for i, volume in enumerate(committed):
            if not up >> i & 1 or faults is not None and faults.is_visible_down(
                src, dst, start + i
            ):
                residual.append(0.0)
            else:
                left = capacity - volume
                residual.append(left if left > 0.0 else 0.0)
        return residual, committed

    def paid_headroom(self, src: int, dst: int, slot: int) -> float:
        """Volume (src, dst) can carry at slot n *free of extra charge*:
        up to the already-paid peak, bounded by residual capacity."""
        free = self._charged[(src, dst)] - self.committed_volume(src, dst, slot)
        return max(0.0, min(free, self.residual_capacity(src, dst, slot)))

    def current_cost_per_slot(self) -> float:
        """Sum of a_ij * X_ij(t-1): the bill per interval if nothing
        further is sent this period."""
        return sum(
            link.price * self._charged[link.key] for link in self.topology.links
        )

    # -- committing decisions ----------------------------------------------

    def commit(
        self,
        schedule: TransferSchedule,
        requests: List[TransferRequest],
        validate: bool = True,
        per_file: bool = False,
    ) -> None:
        """Apply a schedule: record traffic, update X_ij, log completions.

        With ``validate=True`` (default) the schedule is audited against
        per-slot residual capacities *before* anything is recorded, so a
        failed commit leaves the state untouched.  The audit's walk also
        hands back each file's entries, its completion slot and the
        batch's cell sums.

        By default the ledger receives one summed write per link-slot,
        which is how a jointly solved batch lands.  ``per_file=True``
        sums and writes each file's entries on their own, in
        ``requests`` order: a slot of per-file plans then lands float
        for float where committing the files one after another would
        put it — under one validation, so all of them or none.  The
        schedule's ``stored`` GB-slots join :attr:`storage_used` the same
        way: summed per file, or in one pass.
        """
        if validate:
            audit = schedule.validate(requests, capacity_fn=self.residual_capacity)
        else:
            audit = schedule._audit(requests)
        completions = audit.completions
        for request in requests:
            if completions[request.request_id] is None:
                raise SchedulingError(
                    f"commit: file {request.request_id} is not delivered "
                    "by the schedule"
                )

        # One file's sums at a time: a slot of 500 files holds one dict.
        if per_file:
            cells = (
                cell for request in requests
                for cell in _summed(audit[request.request_id]).items()
            )
        else:
            cells = audit.cells.items()
        recorded_gb = self.record_traffic(cells)
        if per_file:
            waits: Dict[int, float] = defaultdict(float)
            for rid, gb in schedule.stored:
                waits[rid] += gb
            for request in requests:
                self.storage_used += waits.get(request.request_id, 0.0)
        else:
            self.storage_used += schedule.total_storage_volume()
        self.completions.update(completions)

        if obs.get_registry().enabled:
            # The ledger-charge leg of a request trace: inside the slot
            # loop's trace() context these events carry the batch's
            # trace ids, closing the intake -> lane -> solve -> charge
            # chain.
            obs.counter("ledger.charged_gb", round(recorded_gb, 6),
                        files=len(requests))
            obs.gauge("ledger.cost_per_slot", self.current_cost_per_slot())

    def record_traffic(
        self, cells: Iterable[Tuple[Tuple[int, int, int], float]]
    ) -> float:
        """Record ``((src, dst, slot), GB)`` cells in the ledger, in order,
        and raise each touched link's charged volume ``X_ij`` to the cell's
        new level: the one write path into the books (:meth:`commit` calls
        it after its audit; replanning and recovery execute through it).
        Volumes only grow here, so raising the peak as each cell is written
        ends where raising it to each cell's final level would.  Returns
        the GB recorded."""
        record, charged = self.ledger.record, self._charged
        recorded_gb = 0.0
        for (src, dst, slot), volume in cells:
            level = record(src, dst, slot, volume)
            recorded_gb += volume
            if level > charged[(src, dst)]:
                charged[(src, dst)] = level
        return recorded_gb

    def void_traffic(self, src: int, dst: int, slot: int, volume: float) -> None:
        """Refund committed traffic that a surprise outage prevented.

        Removes the volume from the ledger (see
        :meth:`TrafficLedger.void`) and re-derives the link's charged
        volume ``X_ij`` from the surviving samples, so the bill never
        includes traffic that physically could not flow.  The recomputed
        peak spans the current charging period including future
        committed slots, matching how :meth:`commit` raised it.
        """
        self.ledger.void(src, dst, slot, volume)
        usage = self.ledger.usage(src, dst)
        end = max(usage.last_slot() + 1, self.period_start + 1)
        self._charged[(src, dst)] = self.ledger.peak_in_range(
            src, dst, self.period_start, end
        )

    def reject(self, request: TransferRequest) -> None:
        """Record a file the scheduling policy chose to drop."""
        self.rejected.append(request)
        obs.counter("scheduler.rejected")

    # -- billing -----------------------------------------------------------

    def start_new_period(self, boundary_slot: int) -> float:
        """Close the charging period ending at ``boundary_slot``.

        The closed period's bill (max-charging over its own samples) is
        banked and returned.  Crucially, the paid peaks **expire**: the
        new period's charged volumes ``X_ij`` restart at the largest
        volume already committed to slots at or after the boundary by
        in-flight transfers — nothing else is free anymore.
        """
        if boundary_slot <= self.period_start:
            raise SchedulingError(
                f"period boundary {boundary_slot} does not advance past "
                f"{self.period_start}"
            )
        bill = self.ledger.period_cost(self.period_start, boundary_slot)
        self.banked_period_bills.append(bill)
        self.period_start = boundary_slot
        for link in self.topology.links:
            self._charged[link.key] = self.ledger.peak_in_range(
                link.src, link.dst, boundary_slot, boundary_slot + self.horizon
            )
        return bill

    def cost_per_slot(self, scheme: Optional[ChargingScheme] = None) -> float:
        """Average billed cost per slot from the ledger's samples.

        Default scheme is the paper's 100-th percentile, under which
        this equals :meth:`current_cost_per_slot` once all committed
        slots lie inside the charging period.
        """
        return self.ledger.cost_per_slot(scheme)

    def total_cost(self, scheme: Optional[ChargingScheme] = None) -> float:
        return self.ledger.total_cost(scheme)

    def __repr__(self) -> str:
        return (
            f"NetworkState(completions={len(self.completions)}, "
            f"rejected={len(self.rejected)}, "
            f"cost_per_slot={self.current_cost_per_slot():.3f})"
        )


def _summed(entries) -> Dict[Tuple[int, int, int], float]:
    """GB per ``(src, dst, slot)`` cell, added up in entry order."""
    volumes: Dict[Tuple[int, int, int], float] = defaultdict(float)
    for _, src, dst, slot, volume in entries:
        volumes[(src, dst, slot)] += volume
    return volumes
