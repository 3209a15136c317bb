"""A fast combinatorial store-and-forward heuristic (no LP).

``GreedyStoreAndForwardScheduler`` approximates Postcard's LP at a
fraction of its cost.  It is the fast lane's engine
(:class:`~repro.heuristic.fastlane.CandidatePathScheduler`: K cheapest
window-aware paths per file, placed on the tracker's window rows, the
smallest *marginal bill increase* wins) with two rules of its own:

* files are planned one at a time, largest desired rate first, each
  folded into the rows as its commit will land it, so a later file
  rides free under the peak an earlier one just paid; the slot then
  commits once, file by file;
* each hop is filled **forward** from the release slot — already-paid
  headroom first, then the remainder spread evenly — never sending
  ahead of arrivals, where the fast lane packs backward from the
  deadline.

This is the kind of scheduler an operator deploys when per-slot LP
solves are too slow (the LP scales with links x horizon x files); the
A8 ablation benchmark quantifies the quality it gives up in exchange.
Placement ignores forecasts, so the forecast hooks are not offered.
"""

from __future__ import annotations

from typing import List, Optional

from repro.heuristic.fastlane import CandidatePathScheduler, Sends
from repro.heuristic.tracker import LinkRows
from repro.traffic.spec import TransferRequest
from repro.units import VOLUME_ATOL


class GreedyStoreAndForwardScheduler(CandidatePathScheduler):
    """Cheapest-path store-and-forward with headroom-first placement."""

    name = "greedy-s&f"

    def _order(self, request: TransferRequest) -> float:
        """Largest required rate first: big files get first pick of the
        cheap paths, mirroring the shedding order used elsewhere."""
        return -request.desired_rate

    def _hold(self, hop_rows, sends):
        """Fold the winner into the rows the way its commit lands it, so
        the next file rides free under the peak this one just paid:
        committed volume up, residual down, the charged peak raised."""
        for rows, sent in zip(hop_rows, sends):
            for i, volume in sent:
                rows.committed[i] += volume
                rows.residual[i] = max(0.0, rows.capacity - rows.committed[i])
                rows.charged = max(rows.charged, rows.committed[i])

    def _sends(self, hop_rows, request):
        """Hop ``h`` (0-based, of ``L``) may use offsets ``[h, T - (L - h)]``
        and is filled from what the previous hop delivers: volume sent
        at offset ``i`` is available downstream from ``i + 1``."""
        hops, span = len(hop_rows), request.deadline_slots
        arrivals: Sends = [(0, request.size_gb)]
        sends: List[Sends] = []
        for h, rows in enumerate(hop_rows):
            sent = _forward_hop(rows, h, span - hops + h, arrivals, request.size_gb)
            if sent is None:
                return None
            sends.append(sent)
            arrivals = [(i + 1, volume) for i, volume in sent]
        return sends

    def _beats(self, cost, path, best):
        """The first strictly cheaper candidate wins."""
        return cost < best[0] - 1e-12


def _forward_hop(
    rows: LinkRows, lo: int, hi: int, arrivals: Sends, size: float
) -> Optional[Sends]:
    """Send ``size`` GB of ``arrivals`` over offsets ``[lo, hi]``, earliest first.

    ``arrivals`` are :data:`~repro.heuristic.fastlane.Sends` pairs: GB
    reaching the hop's tail at each offset (only those inside the window
    count).  Three chronological passes: fill already-paid headroom,
    spread the remainder evenly over the window, then mop up wherever it
    fits.  Every placement is capped by the cell's room and by what has
    arrived and is not already promised to a later offset.  Returns the
    hop's sends as pairs, or ``None`` if the window cannot carry the file.
    """
    window = range(lo, hi + 1)
    arrived_at = [0.0] * (hi + 1)
    for i, volume in arrivals:
        if lo <= i <= hi:
            arrived_at[i] = volume
    sent = [0.0] * (hi + 1)
    remaining = size

    def addable(at: int) -> float:
        """Most that can leave at ``at`` without overdrawing cumulative
        arrivals there or at any later offset."""
        arrived = left = 0.0
        tightest = float("inf")
        for i in window:
            arrived += arrived_at[i]
            left += sent[i]
            if i >= at:
                tightest = min(tightest, arrived - left)
        return max(0.0, tightest)

    for free, spread in ((True, False), (False, True), (False, False)):
        for i in window:
            if remaining <= VOLUME_ATOL:
                break
            volume = min(rows.room(i, free, False) - sent[i], addable(i), remaining)
            if spread:
                volume = min(remaining / (hi + 1 - i), volume)
            if volume > VOLUME_ATOL:
                sent[i] += volume
                remaining -= volume
    if remaining > max(VOLUME_ATOL, 1e-9 * size):
        return None
    return [(i, sent[i]) for i in window if sent[i] > 0.0]
