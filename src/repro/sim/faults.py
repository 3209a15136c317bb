"""Link-failure injection.

Overlay links ride real WAN circuits, and circuits fail.  A
:class:`FaultModel` marks links down for slot ranges; the online state
reports zero residual capacity on a downed link-slot, so every
scheduler in the library transparently routes (and time-shifts) around
outages it can see, and commits fail loudly if a scheduler tries to use
a dead link.

Outages come in two flavors:

* **Announced** (``announced=True``, the default): the outage is known
  when the affected slots are scheduled (planned maintenance, or
  failures lasting longer than a 5-minute slot — the common WAN case).
  Schedulers see these through
  :meth:`NetworkState.residual_capacity` and plan around them.
* **Surprise** (``announced=False``): the outage is invisible at
  schedule time.  The simulation engine detects committed transit on a
  newly dead link-slot at *execution* time, voids that traffic in the
  ledger, and hands the disrupted files to
  :class:`repro.sim.recovery.RecoveryManager` for salvage-and-replan.
  Once a surprise outage has been observed (its first downed slot
  executed), it is :meth:`revealed <reveal>`: the operator now knows
  the circuit is broken until repair, so the outage's remaining slots
  become visible to subsequent planning.

The distinction lives entirely in visibility: :meth:`is_down` is the
ground truth the execution engine audits against, while
:meth:`is_visible_down` is what schedulers may know.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np
import orjson

from repro.errors import SimulationError
from repro.net.topology import LinkKey, Topology

PathLike = Union[str, Path]


@dataclass(frozen=True)
class Outage:
    """One link down for slots [start, end).

    ``announced=False`` marks a *surprise* outage: invisible to
    schedulers until its first downed slot is executed (or it is
    explicitly revealed).
    """

    src: int
    dst: int
    start_slot: int
    end_slot: int
    announced: bool = True

    def __post_init__(self):
        if self.start_slot < 0 or self.end_slot <= self.start_slot:
            raise SimulationError(
                f"outage on ({self.src},{self.dst}) has empty span "
                f"[{self.start_slot}, {self.end_slot})"
            )

    def covers(self, slot: int) -> bool:
        return self.start_slot <= slot < self.end_slot

    @property
    def slots(self) -> range:
        return range(self.start_slot, self.end_slot)


class FaultModel:
    """A set of outages, queryable per link-slot.

    Membership queries are O(1): per-link downed-slot sets are
    precomputed at construction and kept coherent by :meth:`add` and
    :meth:`reveal`.
    """

    def __init__(self, outages: Iterable[Outage] = ()):
        self.outages: List[Outage] = []
        self._by_link: Dict[LinkKey, List[Outage]] = {}
        #: Ground-truth downed slots per link (announced or not).
        self._down_slots: Dict[LinkKey, Set[int]] = {}
        #: Slots schedulers are allowed to know about (announced
        #: outages, plus surprise outages already revealed).
        self._visible_slots: Dict[LinkKey, Set[int]] = {}
        #: Surprise outages discovered at execution time.
        self._revealed: Set[Outage] = set()
        for outage in outages:
            self.add(outage)

    def add(self, outage: Outage) -> None:
        """Register an outage, keeping the slot-set caches coherent."""
        key = (outage.src, outage.dst)
        self.outages.append(outage)
        self._by_link.setdefault(key, []).append(outage)
        self._down_slots.setdefault(key, set()).update(outage.slots)
        if outage.announced:
            self._visible_slots.setdefault(key, set()).update(outage.slots)

    # -- queries ----------------------------------------------------------

    def is_down(self, src: int, dst: int, slot: int) -> bool:
        """Ground truth: is the link actually dead during ``slot``?"""
        slots = self._down_slots.get((src, dst))
        return slots is not None and slot in slots

    def is_visible_down(self, src: int, dst: int, slot: int) -> bool:
        """What a scheduler may know: announced or revealed outages."""
        slots = self._visible_slots.get((src, dst))
        return slots is not None and slot in slots

    def is_surprise_down(self, src: int, dst: int, slot: int) -> bool:
        """Down, but not visible — committed traffic here is disrupted."""
        return self.is_down(src, dst, slot) and not self.is_visible_down(
            src, dst, slot
        )

    @property
    def has_surprise(self) -> bool:
        """True when any outage is unannounced (needs execution-time
        detection, see :class:`repro.sim.recovery.RecoveryManager`)."""
        return any(not o.announced for o in self.outages)

    def downtime_slots(self, src: int, dst: int) -> Set[int]:
        """All downed slots of one link (a fresh copy of the cache)."""
        return set(self._down_slots.get((src, dst), ()))

    # -- execution-time discovery -----------------------------------------

    def reveal(self, src: int, dst: int, slot: int) -> List[Outage]:
        """Mark surprise outages covering ``(src, dst, slot)`` as
        discovered.

        Once a circuit is observed dead, the operator knows it stays
        dead until repaired: the *entire remaining span* of each
        covering outage becomes visible to planning.  Returns the newly
        revealed outages.
        """
        newly = []
        for outage in self._by_link.get((src, dst), ()):
            if outage.announced or outage in self._revealed:
                continue
            if outage.covers(slot):
                self._revealed.add(outage)
                self._visible_slots.setdefault((src, dst), set()).update(
                    outage.slots
                )
                newly.append(outage)
        return newly

    def copy(self) -> "FaultModel":
        """A fresh model with the same outages and *no* reveals.

        Use one copy per simulated scheduler so one run's discoveries
        do not leak into another's planning.
        """
        return FaultModel(self.outages)

    def as_surprise(self) -> "FaultModel":
        """The same outages, all demoted to unannounced."""
        return FaultModel(
            replace(o, announced=False) for o in self.outages
        )

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def random(
        topology: Topology,
        num_slots: int,
        outage_probability: float = 0.05,
        mean_duration: float = 2.0,
        seed: Optional[int] = None,
        announced: bool = True,
    ) -> "FaultModel":
        """Independent per-link outages: each link fails with the given
        probability somewhere in the window, for a geometric duration
        whose mean is ``mean_duration`` slots.  ``announced=False``
        makes every generated outage a surprise."""
        if not 0 <= outage_probability <= 1:
            raise SimulationError("outage_probability must be in [0, 1]")
        if mean_duration < 1:
            raise SimulationError("mean_duration must be >= 1 slot")
        rng = np.random.default_rng(seed)
        outages = []
        for link in topology.links:
            if rng.random() < outage_probability:
                start = int(rng.integers(0, max(1, num_slots)))
                # rng.geometric already returns >= 1 with mean
                # 1/p = mean_duration; adding 1 here would inflate the
                # realized mean to mean_duration + 1.
                duration = int(rng.geometric(1.0 / mean_duration))
                outages.append(
                    Outage(
                        link.src,
                        link.dst,
                        start,
                        start + duration,
                        announced=announced,
                    )
                )
        return FaultModel(outages)

    @staticmethod
    def from_file(path: PathLike) -> "FaultModel":
        """Load outages from a JSON file.

        The format is a list of objects with ``src``, ``dst``,
        ``start_slot``, ``end_slot`` and optional ``announced``
        (default true) keys.
        """
        try:
            payload = orjson.loads(Path(path).read_bytes())
        except (OSError, orjson.JSONDecodeError) as exc:
            raise SimulationError(f"cannot load outages from {path}: {exc}") from exc
        if not isinstance(payload, list):
            raise SimulationError(f"{path}: expected a JSON list of outages")
        outages = []
        for i, row in enumerate(payload):
            if not isinstance(row, dict):
                raise SimulationError(f"{path}[{i}]: not an outage object")
            try:
                outages.append(
                    Outage(
                        src=int(row["src"]),
                        dst=int(row["dst"]),
                        start_slot=int(row["start_slot"]),
                        end_slot=int(row["end_slot"]),
                        announced=bool(row.get("announced", True)),
                    )
                )
            except KeyError as exc:
                raise SimulationError(
                    f"{path}[{i}]: missing outage field {exc}"
                ) from None
        return FaultModel(outages)

    def to_file(self, path: PathLike) -> None:
        """Write the outages as :meth:`from_file` reads them: their fields."""
        Path(path).write_bytes(orjson.dumps(self.outages, option=orjson.OPT_INDENT_2))

    def __repr__(self) -> str:
        surprise = sum(1 for o in self.outages if not o.announced)
        return (
            f"FaultModel(outages={len(self.outages)}, surprise={surprise})"
        )
