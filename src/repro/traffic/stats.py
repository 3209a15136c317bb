"""Offered-load statistics for workloads.

Benchmarks compare schedulers on the *same* traffic; these helpers
summarize what that traffic actually demands so tables can state load
alongside cost (GB per slot offered and required, deadline mix,
hottest pairs).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.traffic.workload import Workload


@dataclass(frozen=True)
class WorkloadStats:
    """Summary of the files released during an observation window."""

    num_slots: int
    num_files: int
    total_gb: float
    #: Mean offered volume per slot (GB), counted at release time.
    offered_gb_per_slot: float
    #: Mean required rate per slot (GB/slot), size spread over deadline.
    required_rate_per_slot: float
    #: deadline (slots) -> file count.
    deadline_histogram: Dict[int, int]
    #: Most frequent (source, destination) pairs with their volumes.
    hottest_pairs: List[Tuple[Tuple[int, int], float]]

    def describe(self) -> str:
        deadline_text = ", ".join(
            f"T={t}: {count}" for t, count in sorted(self.deadline_histogram.items())
        )
        return (
            f"{self.num_files} files / {self.total_gb:.0f} GB over "
            f"{self.num_slots} slots ({self.offered_gb_per_slot:.1f} GB/slot "
            f"offered, {self.required_rate_per_slot:.1f} GB/slot required); "
            f"deadlines: {deadline_text}"
        )


def collect_stats(workload: Workload, num_slots: int) -> WorkloadStats:
    """Summarize ``workload`` over ``[0, num_slots)`` releases."""
    if num_slots < 1:
        raise WorkloadError("num_slots must be >= 1")
    requests = workload.all_requests(num_slots)
    total = sum(r.size_gb for r in requests)
    deadline_histogram: Counter = Counter(r.deadline_slots for r in requests)
    by_pair: Dict[Tuple[int, int], float] = defaultdict(float)
    rate = 0.0
    for request in requests:
        by_pair[(request.source, request.destination)] += request.size_gb
        rate += request.desired_rate
    hottest = sorted(by_pair.items(), key=lambda kv: -kv[1])[:5]
    return WorkloadStats(
        num_slots=num_slots,
        num_files=len(requests),
        total_gb=total,
        offered_gb_per_slot=total / num_slots,
        required_rate_per_slot=rate / num_slots,
        deadline_histogram=dict(deadline_histogram),
        hottest_pairs=hottest,
    )
