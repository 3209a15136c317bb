"""The traffic ledger: who sent how much on which link in which slot.

The ledger is the system's accounting ground truth.  Schedulers commit
their decisions here; the simulator audits capacity against it; and at
the end of a charging period the billed cost of each link is computed
from the recorded samples under any :class:`~repro.charging.schemes.ChargingScheme`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ChargingError
from repro.charging.costfunc import CostFunction, LinearCost
from repro.charging.schemes import ChargingScheme, MaxCharging
from repro.net.topology import LinkKey, Topology


class LinkUsage:
    """Per-slot volumes recorded on one directed link."""

    __slots__ = ("volumes",)

    def __init__(self):
        self.volumes: Dict[int, float] = {}

    def add(self, slot: int, volume: float) -> None:
        if slot < 0:
            raise ChargingError(f"slot must be non-negative, got {slot}")
        if volume < 0:
            raise ChargingError(f"volume must be non-negative, got {volume}")
        if volume == 0.0:
            return
        self.volumes[slot] = self.volumes.get(slot, 0.0) + volume

    def volume_at(self, slot: int) -> float:
        return self.volumes.get(slot, 0.0)

    def peak(self) -> float:
        """Largest recorded slot volume (0 for an unused link)."""
        return max(self.volumes.values(), default=0.0)

    def last_slot(self) -> int:
        """Largest slot index with recorded traffic (-1 if none)."""
        return max(self.volumes.keys(), default=-1)

    def samples(self, num_slots: int) -> np.ndarray:
        """Dense per-slot volume array over ``[0, num_slots)``.

        Slots with no recorded traffic contribute zero samples — this is
        what makes low-percentile schemes cheap for bursty senders.
        """
        arr = np.zeros(num_slots)
        for slot, volume in self.volumes.items():
            if slot < num_slots:
                arr[slot] = volume
        return arr

    def total(self) -> float:
        return sum(self.volumes.values())

    def prune_before(self, slot: int) -> int:
        """Drop samples in slots ``< slot``; returns how many.

        Billing rollover calls this after a period's bill is banked:
        the closed period's samples can never change a future bill, and
        an unbounded sample map is what would make a months-long broker
        run grow without limit.
        """
        stale = [s for s in self.volumes if s < slot]
        for s in stale:
            del self.volumes[s]
        return len(stale)


class TrafficLedger:
    """Committed traffic volumes for every link of a topology.

    ``horizon`` is the number of slots in the charging period; billing
    always considers exactly that many samples (absent slots are zero).
    """

    def __init__(self, topology: Topology, horizon: int):
        if horizon <= 0:
            raise ChargingError(f"horizon must be positive, got {horizon}")
        self.topology = topology
        self.horizon = horizon
        self._usage: Dict[LinkKey, LinkUsage] = defaultdict(LinkUsage)

    # -- recording ------------------------------------------------------

    def record(self, src: int, dst: int, slot: int, volume: float) -> None:
        """Commit ``volume`` GB on link (src, dst) during ``slot``.

        ``slot`` may exceed the horizon only transiently (transfers that
        straddle the period boundary); such traffic is not billed in
        this period.
        """
        if not self.topology.has_link(src, dst):
            raise ChargingError(f"no link ({src},{dst}) in topology")
        self._usage[(src, dst)].add(slot, volume)

    def void(self, src: int, dst: int, slot: int, volume: float) -> None:
        """Refund ``volume`` GB previously recorded on (src, dst, slot).

        The refund path exists for *surprise* link failures: traffic
        committed onto a link-slot that turns out to be dead never
        happened, so it must not be billed and must not count against
        capacity in the post-run audit.  Voiding more than was recorded
        is an accounting bug and raises :class:`ChargingError`.
        """
        if volume < 0:
            raise ChargingError(f"void volume must be non-negative, got {volume}")
        if volume == 0.0:
            return
        usage = self._usage[(src, dst)]
        recorded = usage.volume_at(slot)
        if volume > recorded + 1e-9 * max(1.0, recorded):
            raise ChargingError(
                f"void of {volume:.6f} GB on ({src},{dst}) at slot {slot} "
                f"exceeds the {recorded:.6f} GB recorded"
            )
        remaining = recorded - volume
        if remaining <= 1e-12:
            usage.volumes.pop(slot, None)
        else:
            usage.volumes[slot] = remaining

    # -- queries ------------------------------------------------------------

    def volume(self, src: int, dst: int, slot: int) -> float:
        return self._usage[(src, dst)].volume_at(slot)

    def usage(self, src: int, dst: int) -> LinkUsage:
        """The :class:`LinkUsage` record of one directed link.

        Public accessor for consumers (audits, checkpoints) that need
        the per-slot volume map itself rather than one aggregate.
        """
        return self._usage[(src, dst)]

    def peak_volume(self, src: int, dst: int) -> float:
        """Max slot volume seen on the link (the 100-percentile charge)."""
        return self._usage[(src, dst)].peak()

    def samples(self, src: int, dst: int) -> np.ndarray:
        return self._usage[(src, dst)].samples(self.horizon)

    def samples_range(self, src: int, dst: int, start: int, end: int) -> np.ndarray:
        """Dense per-slot volumes over ``[start, end)`` (for one
        charging period of a multi-period run)."""
        if not 0 <= start < end:
            raise ChargingError(f"invalid sample range [{start}, {end})")
        arr = np.zeros(end - start)
        for slot, volume in self._usage[(src, dst)].volumes.items():
            if start <= slot < end:
                arr[slot - start] = volume
        return arr

    def peak_in_range(self, src: int, dst: int, start: int, end: int) -> float:
        """Largest slot volume recorded in ``[start, end)``."""
        return max(
            (
                v
                for slot, v in self._usage[(src, dst)].volumes.items()
                if start <= slot < end
            ),
            default=0.0,
        )

    def residual_capacity(self, src: int, dst: int, slot: int) -> float:
        """Capacity left on (src, dst) during ``slot``."""
        cap = self.topology.link(src, dst).capacity
        return max(0.0, cap - self.volume(src, dst, slot))

    def prune_before(self, slot: int) -> int:
        """Drop every link's samples before ``slot`` (closed periods).

        Returns the number of samples removed.  Only safe once no query
        will ask about the pruned range — the broker prunes exactly at
        banked period boundaries, where the bill has already been
        computed and banked.
        """
        if slot < 0:
            raise ChargingError(f"prune slot must be non-negative, got {slot}")
        return sum(
            usage.prune_before(slot) for usage in self._usage.values()
        )

    def used_links(self) -> List[LinkKey]:
        """Links with any recorded traffic."""
        return [key for key, usage in self._usage.items() if usage.volumes]

    def total_volume(self) -> float:
        """Sum of all recorded link-slot volumes (relay traffic counts
        once per hop, as an ISP would bill it)."""
        return sum(usage.total() for usage in self._usage.values())

    def free_ride_volume(self, src: int, dst: int) -> float:
        """GB on (src, dst) that rode under an already-established peak.

        Walking the link's slots in time order with a running peak,
        each slot's volume up to the previous peak was free under
        100-percentile billing; only the excess raised the bill.  This
        is the quantity the paper's "time-shifting" argument is about.
        """
        usage = self._usage[(src, dst)]
        running_peak = 0.0
        free = 0.0
        for slot in sorted(usage.volumes):
            volume = usage.volumes[slot]
            free += min(volume, running_peak)
            running_peak = max(running_peak, volume)
        return free

    def free_ride_fraction(self) -> float:
        """Network-wide fraction of billable volume that was free.

        0.0 on an idle network; approaches 1.0 when nearly all traffic
        reuses peaks paid for earlier in the period.
        """
        total = self.total_volume()
        if total <= 0:
            return 0.0
        free = sum(
            self.free_ride_volume(src, dst) for src, dst in self._usage
        )
        return free / total

    # -- billing ---------------------------------------------------------------

    def charged_volume(
        self, src: int, dst: int, scheme: Optional[ChargingScheme] = None
    ) -> float:
        """Charged volume of one link under ``scheme`` (default: max)."""
        scheme = scheme or MaxCharging()
        return scheme.charged_volume(self.samples(src, dst))

    def link_cost(
        self,
        src: int,
        dst: int,
        scheme: Optional[ChargingScheme] = None,
        cost_fn: Optional[CostFunction] = None,
    ) -> float:
        """Billed cost of one link for the whole charging period.

        With the paper's conventions (max charging, linear cost at the
        link's price), the period bill is ``a_ij * X_ij * horizon`` —
        the charge applies to every interval of the period.
        """
        fn = cost_fn or LinearCost(self.topology.link(src, dst).price)
        return fn(self.charged_volume(src, dst, scheme)) * self.horizon

    def total_cost(
        self,
        scheme: Optional[ChargingScheme] = None,
        cost_fn_factory=None,
    ) -> float:
        """Billed cost over all links for the whole charging period.

        ``cost_fn_factory(link) -> CostFunction`` overrides the default
        linear-at-link-price functions.
        """
        total = 0.0
        for link in self.topology.links:
            fn = cost_fn_factory(link) if cost_fn_factory else None
            total += self.link_cost(link.src, link.dst, scheme, fn)
        return total

    def cost_per_slot(self, scheme: Optional[ChargingScheme] = None) -> float:
        """Average billed cost per time interval (the paper's metric)."""
        return self.total_cost(scheme) / self.horizon

    def period_cost(
        self,
        start: int,
        end: int,
        scheme: Optional[ChargingScheme] = None,
        cost_fn_factory=None,
    ) -> float:
        """Bill of one charging period ``[start, end)`` on its own.

        Each period is billed independently: the charged volume is the
        scheme applied to that period's samples only, and the charge
        applies for the period's own length.
        """
        scheme = scheme or MaxCharging()
        total = 0.0
        for link in self.topology.links:
            samples = self.samples_range(link.src, link.dst, start, end)
            fn = (
                cost_fn_factory(link)
                if cost_fn_factory
                else LinearCost(link.price)
            )
            total += fn(scheme.charged_volume(samples)) * (end - start)
        return total

    def charged_snapshot(self, scheme: Optional[ChargingScheme] = None) -> Dict[LinkKey, float]:
        """Charged volume of every link (used as ``X_ij(t-1)`` inputs)."""
        scheme = scheme or MaxCharging()
        return {
            link.key: scheme.charged_volume(self.samples(link.src, link.dst))
            for link in self.topology.links
        }

    def __repr__(self) -> str:
        return (
            f"TrafficLedger(horizon={self.horizon}, "
            f"used_links={len(self.used_links())})"
        )
