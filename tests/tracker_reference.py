"""The tracker's hand-loading and utilization queries, kept beside the
tests that read them.

The fast lane plans on the window rows alone.  :class:`ScalarTracker` is
:class:`~repro.heuristic.tracker.UtilizationTracker` plus ``add`` and
``pending``, which load and read one cell by hand, and ``utilization``,
which answers from the live state; with the tracker's scalar room
queries they are the oracle the rows are held to
(``tests/test_heuristic_property.py``).
"""

from __future__ import annotations

from repro.heuristic.tracker import UtilizationTracker


class ScalarTracker(UtilizationTracker):
    """A window table that is also loaded and read one cell at a time."""

    def add(self, src: int, dst: int, slot: int, volume: float) -> None:
        """Record a tentative placement of ``volume`` GB on a cell."""
        if volume > 0.0:
            self.rows(src, dst, slot).pending[slot - self._base] += volume

    def pending(self, src: int, dst: int, slot: int) -> float:
        """Tentative (uncommitted) volume currently planned on a cell."""
        rows = self._rows.get((src, dst))
        i = slot - self._base
        if rows is None or not 0 <= i < len(rows.pending):
            return 0.0
        return rows.pending[i]

    def utilization(self, src: int, dst: int, slot: int) -> float:
        """(committed + pending) / raw link capacity for one cell."""
        return self._cell(src, dst, slot).utilization(0)
