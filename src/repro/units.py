"""Units and conventions used throughout the reproduction.

The paper measures traffic in gigabytes and time in 5-minute slots.  All
library code works in those units:

* volumes are in **GB**,
* per-slot link capacities are in **GB per slot** (the paper's
  ``c_ij * t_bar`` product),
* prices are in abstract **dollars per GB**, and
* time is an integer **slot index** (one slot = 5 minutes = 300 s).

This module holds those constants, the audit tolerance and the
percentile-billing index so nothing else has magic constants.
"""

from __future__ import annotations

#: Duration of one charging-scheme time interval, in seconds (the
#: paper's ``t_bar``; ISPs sample traffic every 5 minutes).
SLOT_SECONDS: float = 300.0

#: Number of slots in one day.
SLOTS_PER_DAY: int = 24 * 60 // 5

#: Number of slots in a 365-day charging period (the paper's example:
#: a one-year period has 105120 five-minute intervals).
SLOTS_PER_YEAR: int = 365 * SLOTS_PER_DAY

#: Absolute tolerance (in GB) below which traffic volumes are treated
#: as zero when auditing schedules.  LP solvers return values that are
#: only accurate to roughly this order.
VOLUME_ATOL: float = 1e-6


def percentile_slot_index(q: float, num_slots: int) -> int:
    """Index (0-based, in ascending sorted order) billed by a q-th
    percentile charging scheme over ``num_slots`` samples.

    Follows the ISP convention from Goldberg et al. (SIGCOMM'04) used in
    the paper: with q = 95 and a year of 5-minute samples the charged
    sample is the 99864-th (1-based) of 105120.

    >>> percentile_slot_index(95, 105120) + 1
    99864
    >>> percentile_slot_index(100, 100)
    99
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    # q * num_slots first: exact for integral q, where q / 100.0 is not.
    index = int(q * num_slots // 100) - 1
    return max(0, min(index, num_slots - 1))
