"""Time-expanded graphs (Ford & Fulkerson, 1958; Sec. V of the paper).

A dynamic flow problem over slots ``[t, t + H]`` becomes a static flow
problem on a layered DAG: one copy of every datacenter per slot
boundary, a *transit arc* ``i^n -> j^{n+1}`` per overlay link and slot
(same capacity and price as the link), and a *holdover arc*
``i^n -> i^{n+1}`` per datacenter and slot with infinite capacity and
zero price — holding data at a datacenter is free.
"""

from repro.timeexp.cache import GraphCache
from repro.timeexp.graph import Arc, ArcKind, TimeExpandedGraph, TimeNode

__all__ = ["Arc", "ArcKind", "GraphCache", "TimeExpandedGraph", "TimeNode"]
