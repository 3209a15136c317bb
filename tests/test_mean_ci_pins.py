"""Golden pins for :func:`repro.analysis.mean_ci`'s half-width.

``tests/data/mean_ci_pins.json`` holds ``float.hex`` of the half-width
for ``df`` 1..200 at four confidence levels, recorded from the commit
whose ``mean_ci`` took its Student-t quantile from ``scipy.stats.t.ppf``
(run ``python -m tests.test_mean_ci_pins`` from the repo root with that
commit's ``src/`` on ``PYTHONPATH`` to re-record).  The quantile now
comes from ``scipy.special.stdtrit``, which ``t.ppf`` evaluates, so the
half-widths must be equal bit for bit — and checking that here imports
no ``scipy.stats``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import scipy

from repro.analysis import mean_ci

PINS = Path(__file__).parent / "data" / "mean_ci_pins.json"
CONFIDENCES = (0.5, 0.9, 0.95, 0.99)
DFS = range(1, 201)


def _sample(df: int):
    """``df + 1`` values with a nonzero spread."""
    return [float(i % 5) for i in range(df + 1)]


def _half_widths():
    return {
        str(confidence): [
            mean_ci(_sample(df), confidence).half_width.hex() for df in DFS
        ]
        for confidence in CONFIDENCES
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_half_widths_are_the_recorded_bits(pins):
    if pins["scipy"] != scipy.__version__:
        pytest.skip(f"pins were recorded under scipy {pins['scipy']}")
    assert _half_widths() == pins["half_widths"]


def test_pins_cover_what_they_claim(pins):
    widths = pins["half_widths"]
    assert sorted(widths) == sorted(map(str, CONFIDENCES))
    assert all(len(column) == len(DFS) for column in widths.values())
    # Wider confidence, wider interval, at every df.
    for low, high in zip(CONFIDENCES, CONFIDENCES[1:]):
        for a, b in zip(widths[str(low)], widths[str(high)]):
            assert float.fromhex(a) < float.fromhex(b)


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(
        {"scipy": scipy.__version__, "half_widths": _half_widths()}, indent=1,
    ) + "\n")
    print(f"recorded {len(CONFIDENCES) * len(DFS)} half-widths into {PINS}")
