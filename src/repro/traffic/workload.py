"""Workload generators: which files arrive at which slot.

``PaperWorkload`` reproduces Sec. VII exactly: per slot, a uniform
1..20 files, each with uniform size 10..100 GB, uniform random distinct
source/destination, and a deadline drawn from 1..max_deadline slots.
The other generators exercise the system on more structured traffic.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.net.topology import Topology
from repro.traffic.spec import TransferRequest


class Workload(abc.ABC):
    """A source of transfer requests, indexed by slot."""

    @abc.abstractmethod
    def requests_at(self, slot: int) -> List[TransferRequest]:
        """Files released at the beginning of ``slot``."""

    def all_requests(self, num_slots: int) -> List[TransferRequest]:
        """All files released during ``[0, num_slots)``."""
        out: List[TransferRequest] = []
        for slot in range(num_slots):
            out.extend(self.requests_at(slot))
        return out


def _pick_pair(rng: np.random.Generator, node_ids: Sequence[int]) -> Tuple[int, int]:
    src, dst = rng.choice(len(node_ids), size=2, replace=False)
    return node_ids[int(src)], node_ids[int(dst)]


class PaperWorkload(Workload):
    """The Sec. VII synthetic workload.

    Per slot: ``U[min_files, max_files]`` files; each of size
    ``U[min_size, max_size]`` GB; source and destination uniform over
    distinct datacenters.  The paper parameterizes settings only by
    ``max_k T_k`` (3 or 8); ``deadline_distribution`` selects how the
    individual ``T_k`` relate to it:

    * ``"fixed"`` (default): every file gets ``T_k = max_deadline``.
      This keeps Postcard feasible in the limited-capacity settings (a
      100 GB file with ``T_k = 1`` cannot cross a 30 GB/slot network
      under store-and-forward semantics, where one slot means one hop).
    * ``"uniform"``: ``T_k ~ U[min_deadline, max_deadline]``.  The
      default ``min_deadline=1`` matches the paper's description most
      literally; the figure benchmarks use ``min_deadline=2`` so that
      the largest files stay deliverable under store-and-forward
      semantics in the limited-capacity settings (one slot = one hop,
      and a 100 GB file cannot cross a 30 GB/slot link in one slot).

    Deterministic per (seed, slot): asking for the same slot twice
    returns identical files, so schedulers under comparison see the
    same traffic.
    """

    def __init__(
        self,
        topology: Topology,
        max_deadline: int,
        min_files: int = 1,
        max_files: int = 20,
        min_size: float = 10.0,
        max_size: float = 100.0,
        seed: Optional[int] = None,
        deadline_distribution: str = "fixed",
        min_deadline: int = 1,
    ):
        if max_deadline < 1:
            raise WorkloadError("max_deadline must be >= 1")
        if not 1 <= min_deadline <= max_deadline:
            raise WorkloadError(
                f"need 1 <= min_deadline <= max_deadline, got {min_deadline}"
            )
        if deadline_distribution not in ("fixed", "uniform"):
            raise WorkloadError(
                f"unknown deadline distribution {deadline_distribution!r}"
            )
        if not 0 < min_files <= max_files:
            raise WorkloadError("need 0 < min_files <= max_files")
        if not 0 < min_size <= max_size:
            raise WorkloadError("need 0 < min_size <= max_size")
        if topology.num_datacenters < 2:
            raise WorkloadError("workload needs at least 2 datacenters")
        self.topology = topology
        self.max_deadline = max_deadline
        self.min_files = min_files
        self.max_files = max_files
        self.min_size = min_size
        self.max_size = max_size
        self.seed = seed if seed is not None else 0
        self.deadline_distribution = deadline_distribution
        self.min_deadline = min_deadline
        self._node_ids = topology.node_ids()

    def requests_at(self, slot: int) -> List[TransferRequest]:
        rng = np.random.default_rng((self.seed, slot))
        count = int(rng.integers(self.min_files, self.max_files + 1))
        requests = []
        for _ in range(count):
            src, dst = _pick_pair(rng, self._node_ids)
            size = float(rng.uniform(self.min_size, self.max_size))
            if self.deadline_distribution == "fixed":
                deadline = self.max_deadline
            else:
                deadline = int(
                    rng.integers(self.min_deadline, self.max_deadline + 1)
                )
            requests.append(
                TransferRequest(src, dst, size, deadline, release_slot=slot)
            )
        return requests


class DiurnalWorkload(Workload):
    """Traffic with the strong diurnal pattern of Chen et al. (2011).

    The per-slot file count follows a sinusoid with a 24-hour period:
    peak hours release ``peak_files`` files, troughs release
    ``trough_files``.  ``phase_slots`` shifts the peak, which lets two
    regions in different time zones be modeled with two workloads.
    """

    def __init__(
        self,
        topology: Topology,
        max_deadline: int,
        peak_files: int = 20,
        trough_files: int = 2,
        slots_per_day: int = 288,
        phase_slots: int = 0,
        min_size: float = 10.0,
        max_size: float = 100.0,
        seed: Optional[int] = None,
    ):
        if trough_files < 0 or peak_files < trough_files:
            raise WorkloadError("need 0 <= trough_files <= peak_files")
        if slots_per_day < 2:
            raise WorkloadError("slots_per_day must be >= 2")
        if max_deadline < 1:
            raise WorkloadError("max_deadline must be >= 1")
        self.topology = topology
        self.max_deadline = max_deadline
        self.peak_files = peak_files
        self.trough_files = trough_files
        self.slots_per_day = slots_per_day
        self.phase_slots = phase_slots
        self.min_size = min_size
        self.max_size = max_size
        self.seed = seed if seed is not None else 0
        self._node_ids = topology.node_ids()

    def intensity(self, slot: int) -> float:
        """Expected file count at ``slot`` (sinusoidal, period = 1 day)."""
        angle = 2.0 * np.pi * ((slot + self.phase_slots) % self.slots_per_day) / self.slots_per_day
        mid = (self.peak_files + self.trough_files) / 2.0
        amp = (self.peak_files - self.trough_files) / 2.0
        return mid + amp * np.sin(angle)

    def requests_at(self, slot: int) -> List[TransferRequest]:
        rng = np.random.default_rng((self.seed, slot))
        count = int(rng.poisson(self.intensity(slot)))
        requests = []
        for _ in range(count):
            src, dst = _pick_pair(rng, self._node_ids)
            size = float(rng.uniform(self.min_size, self.max_size))
            deadline = int(rng.integers(1, self.max_deadline + 1))
            requests.append(TransferRequest(src, dst, size, deadline, release_slot=slot))
        return requests


class PoissonWorkload(Workload):
    """Memoryless arrivals: Poisson(rate) files per slot."""

    def __init__(
        self,
        topology: Topology,
        max_deadline: int,
        rate: float = 5.0,
        min_size: float = 10.0,
        max_size: float = 100.0,
        seed: Optional[int] = None,
    ):
        if rate <= 0:
            raise WorkloadError("rate must be positive")
        if max_deadline < 1:
            raise WorkloadError("max_deadline must be >= 1")
        self.topology = topology
        self.max_deadline = max_deadline
        self.rate = rate
        self.min_size = min_size
        self.max_size = max_size
        self.seed = seed if seed is not None else 0
        self._node_ids = topology.node_ids()

    def requests_at(self, slot: int) -> List[TransferRequest]:
        rng = np.random.default_rng((self.seed, slot))
        count = int(rng.poisson(self.rate))
        requests = []
        for _ in range(count):
            src, dst = _pick_pair(rng, self._node_ids)
            size = float(rng.uniform(self.min_size, self.max_size))
            deadline = int(rng.integers(1, self.max_deadline + 1))
            requests.append(TransferRequest(src, dst, size, deadline, release_slot=slot))
        return requests


class FlashCrowdWorkload(Workload):
    """Quiet background traffic punctuated by correlated bursts.

    Most slots release ``Poisson(base_rate)`` ordinary files; with
    probability ``burst_probability`` a slot is a *flash crowd*: many
    files from many sources converge on one hot destination at once
    (a viral object being replicated, a failover re-sync).  Bursts are
    the adversarial case for percentile billing — they set link peaks
    that ordinary traffic then rides for free.
    """

    def __init__(
        self,
        topology: Topology,
        max_deadline: int,
        base_rate: float = 2.0,
        burst_probability: float = 0.1,
        burst_files: int = 10,
        min_size: float = 10.0,
        max_size: float = 100.0,
        seed: Optional[int] = None,
    ):
        if base_rate < 0:
            raise WorkloadError("base_rate must be non-negative")
        if not 0.0 <= burst_probability <= 1.0:
            raise WorkloadError("burst_probability must be in [0, 1]")
        if burst_files < 1:
            raise WorkloadError("burst_files must be >= 1")
        if max_deadline < 1:
            raise WorkloadError("max_deadline must be >= 1")
        self.topology = topology
        self.max_deadline = max_deadline
        self.base_rate = base_rate
        self.burst_probability = burst_probability
        self.burst_files = burst_files
        self.min_size = min_size
        self.max_size = max_size
        self.seed = seed if seed is not None else 0
        self._node_ids = topology.node_ids()

    def is_burst_slot(self, slot: int) -> bool:
        rng = np.random.default_rng((self.seed, slot, 1))
        return bool(rng.random() < self.burst_probability)

    def requests_at(self, slot: int) -> List[TransferRequest]:
        rng = np.random.default_rng((self.seed, slot, 2))
        requests = []
        for _ in range(int(rng.poisson(self.base_rate))):
            src, dst = _pick_pair(rng, self._node_ids)
            size = float(rng.uniform(self.min_size, self.max_size))
            deadline = int(rng.integers(1, self.max_deadline + 1))
            requests.append(TransferRequest(src, dst, size, deadline, release_slot=slot))
        if self.is_burst_slot(slot):
            hot = self._node_ids[int(rng.integers(0, len(self._node_ids)))]
            sources = [n for n in self._node_ids if n != hot]
            for _ in range(self.burst_files):
                src = sources[int(rng.integers(0, len(sources)))]
                size = float(rng.uniform(self.min_size, self.max_size))
                requests.append(
                    TransferRequest(
                        src, hot, size, self.max_deadline, release_slot=slot
                    )
                )
        return requests


class MergedWorkload(Workload):
    """Superimpose several arrival processes into one.

    Real networks carry mixtures — steady interactive traffic *plus*
    occasional flash crowds *plus* scheduled batch jobs.  Each slot's
    releases are the concatenation of every component's releases.
    """

    def __init__(self, components: List[Workload]):
        if not components:
            raise WorkloadError("MergedWorkload needs at least one component")
        self.components = list(components)

    def requests_at(self, slot: int) -> List[TransferRequest]:
        out: List[TransferRequest] = []
        for component in self.components:
            out.extend(component.requests_at(slot))
        return out


class TraceWorkload(Workload):
    """Replay an explicit list of requests (e.g. the paper's examples)."""

    def __init__(self, requests: Iterable[TransferRequest]):
        self._by_slot: Dict[int, List[TransferRequest]] = {}
        for req in requests:
            self._by_slot.setdefault(req.release_slot, []).append(req)

    def requests_at(self, slot: int) -> List[TransferRequest]:
        return list(self._by_slot.get(slot, []))
