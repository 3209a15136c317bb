"""The LP-free engine's plans as dense rows, for the tests that hold them
against dense oracles.

A plan lists, per hop, ``(offset, GB)`` pairs by rising offset, every GB
above zero (:data:`repro.heuristic.fastlane.Sends`).  :func:`dense`
checks that form and spreads each hop over ``width`` offsets, zeros
between: the form the sweep and buffer-walk oracles of
``tests/test_fastlane_diagonal.py`` return and the hand-built
expectations of ``tests/test_heuristic.py`` and
``tests/test_greedy_property.py`` read.  It is the one converter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def dense(
    sends: Optional[Sequence[Sequence[Tuple[int, float]]]], width: int
) -> Optional[List[List[float]]]:
    """Per hop, the GB sent at each offset ``0 .. width - 1`` (``None``
    passes through: a path that cannot carry the file)."""
    if sends is None:
        return None
    rows = []
    for sent in sends:
        offsets = [i for i, _ in sent]
        assert offsets == sorted(set(offsets)), f"offsets not rising: {offsets}"
        assert all(volume > 0.0 for _, volume in sent), f"a pair sends nothing: {sent}"
        row = [0.0] * width
        for i, volume in sent:
            row[i] = volume
        rows.append(row)
    return rows
