"""The heuristic fast lane: deadline-guaranteed scheduling without LPs.

Introduced in PR 4.  Postcard's per-slot LP is exact but its
assembly + solve cost grows with the batch size and the window length;
close-to-deadline heuristics (DCRoute, RCD) admit and place in
near-constant time per request while still guaranteeing deadlines.
This package supplies that fast lane and the hybrid mode that escalates
pressured slots back to the LP:

* :class:`~repro.heuristic.tracker.UtilizationTracker` — the per-slot
  window table: residual / paid-headroom / pending rows per link;
* :class:`~repro.heuristic.paths.CandidatePathIndex` — K-cheapest
  simple paths per (source, destination) pair, tabled at start-up;
* :class:`~repro.heuristic.fastlane.FastLaneScheduler` — per-request
  admission test plus ALAP placement (registry name ``"heuristic"``);
* :class:`~repro.heuristic.hybrid.HybridScheduler` — fast lane per
  slot, LP escalation under admission pressure (``"hybrid"``).
"""

from repro.core.interfaces import SlotPlan
from repro.heuristic.fastlane import FastLaneScheduler
from repro.heuristic.hybrid import HybridScheduler
from repro.heuristic.paths import CandidatePathIndex
from repro.heuristic.tracker import UtilizationTracker

__all__ = [
    "CandidatePathIndex",
    "FastLaneScheduler",
    "HybridScheduler",
    "SlotPlan",
    "UtilizationTracker",
]
