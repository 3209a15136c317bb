"""Calibrated seconds: a fixed kernel that measures how fast the box is *now*.

The sandbox's own speed drifts by more than the bounds the benchmark
must hold (see README.md, "Calibrated seconds"), so every timed interval
is bracketed by :func:`kernel` and scaled by
``REF_KERNEL_S / mean(bracketing kernel times)``.  The kernel is the
same kind of work the broker does — dict stores, float arithmetic,
bytecode dispatch.  It says nothing about the disk: the fifth of
``durable_trickle`` that waits for ``fsync`` is scaled with the rest.
"""

from __future__ import annotations

from time import perf_counter

#: A round figure near what :func:`kernel` takes on the box the baseline
#: was recorded on (9.6-14 ms over one session).  A constant, not a
#: measurement: changing it rescales every calibrated time in
#: ``history.jsonl``.
REF_KERNEL_S = 0.0100

_KERNEL_ITERATIONS = 100_000


def kernel() -> float:
    """Run the fixed dict/float loop once; returns its raw wall seconds."""
    started = perf_counter()
    cells = {}
    level = 0.0
    for i in range(_KERNEL_ITERATIONS):
        key = i & 1023
        level = level * 0.999 + cells.get(key, 0.0) + 0.5
        cells[key] = level - i
    return perf_counter() - started


def factor(*kernel_seconds: float) -> float:
    """Multiplier turning raw seconds into calibrated seconds."""
    return REF_KERNEL_S * len(kernel_seconds) / sum(kernel_seconds)

