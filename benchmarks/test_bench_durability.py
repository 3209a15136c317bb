"""Durability cost — O(1) bytes per request under the write-ahead log.

Runs the measurement core of ``scripts/bench_durability.py`` at a
reduced scale and asserts the claim the committed
``results/BENCH_durability.json`` records at full scale: durable bytes
per request stay bounded and flat in N.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_durability import evaluate_gates, run_points  # noqa: E402


def test_bench_durability_wal_is_flat(tmp_path):
    points = run_points([100, 300], batch=10, checkpoint_every=10,
                        workdir=str(tmp_path))
    gates = evaluate_gates(points, max_wal_bytes=4096.0, max_growth=1.25)
    assert gates["wal_bytes_per_request"]["ok"], gates
    assert gates["wal_flat_in_n"]["ok"], gates
    # Every admit record is small and bounded: the O(1) claim per record.
    for point in points:
        assert point["wal"]["admit_bytes_max"] < 1024
