#!/usr/bin/env python
"""Durability-cost benchmark: bytes the write-ahead log pays per request.

Drives the transfer broker in-process (no socket, no clock) through a
fixed synthetic workload at growing request counts and measures the
*durable bytes* it pays per admitted request: every admission and slot
commit appends one O(1)-sized fsync'd record, and periodic compaction
appends the new decisions to the decision journal and rewrites the
(state-only) snapshot, amortized over ``checkpoint_every`` slots.
*Durable bytes* are everything the store fsyncs — WAL + journal +
snapshots.

Writes a ``BENCH_durability.json`` record and gates the acceptance
claims from docs/ROBUSTNESS.md:

* bytes/request stay under ``--max-wal-bytes`` (default 4096) at the
  largest point (1000+ requests);
* bytes/request are flat in N (largest/smallest ratio under
  ``--max-growth``, default 1.25) — the O(1) claim.

Usage::

    PYTHONPATH=src python scripts/bench_durability.py \
        [-o benchmarks/results/BENCH_durability.json] \
        [--sizes 250 500 1000] [--batch 10] [--checkpoint-every 25]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.service import ServiceConfig
from repro.service.slotloop import TransferBroker

NUM_DCS = 6
CAPACITY = 50.0
TOPOLOGY_SEED = 2012
WORKLOAD_SEED = 4012
MAX_DEADLINE = 8
MIN_SIZE = 1.0
MAX_SIZE = 10.0


def make_workload(count: int, seed: int = WORKLOAD_SEED):
    """A deterministic stream of submit payloads."""
    rng = np.random.default_rng(seed)
    fields = []
    for i in range(count):
        src = int(rng.integers(0, NUM_DCS))
        dst = int(rng.integers(0, NUM_DCS - 1))
        if dst >= src:
            dst += 1
        fields.append({
            "id": f"d-{i:05d}",
            "source": src,
            "destination": dst,
            "size_gb": float(rng.uniform(MIN_SIZE, MAX_SIZE)),
            "deadline_slots": int(rng.integers(2, MAX_DEADLINE + 1)),
        })
    return fields


def broker_config(workdir: str, *, checkpoint_every: int) -> ServiceConfig:
    return ServiceConfig(
        datacenters=NUM_DCS,
        capacity=CAPACITY,
        seed=TOPOLOGY_SEED,
        max_deadline=MAX_DEADLINE,
        tick_seconds=0.0,
        checkpoint_dir=workdir,
        checkpoint_every=checkpoint_every,
    )


def run_mode(count: int, batch: int, workdir: str, *, checkpoint_every: int) -> dict:
    """Feed ``count`` requests through one broker; return durable-byte stats."""
    broker = TransferBroker(broker_config(workdir, checkpoint_every=checkpoint_every))
    workload = make_workload(count)
    admit_bytes_max = 0
    started = time.perf_counter()
    for i, fields in enumerate(workload):
        before = broker.store.wal.bytes_written
        broker.submit(fields)
        admit_bytes_max = max(admit_bytes_max, broker.store.wal.bytes_written - before)
        if (i + 1) % batch == 0:
            broker.process_slot()
    if count % batch:
        broker.process_slot()
    elapsed = time.perf_counter() - started

    stats = broker.stats()
    durable = stats["wal_bytes"] + stats["journal_bytes"] + stats["snapshot_bytes"]
    out = {
        "requests": count,
        "slots": broker.next_slot,
        "decided": len(broker.decisions),
        "durable_bytes": durable,
        "bytes_per_request": round(durable / count, 2),
        "wal_bytes": stats["wal_bytes"],
        "journal_bytes": stats["journal_bytes"],
        "snapshot_bytes": stats["snapshot_bytes"],
        "checkpoints": stats["checkpoints"],
        "seconds": round(elapsed, 4),
        "wal_records": stats["wal_records"],
        "admit_bytes_max": admit_bytes_max,
    }
    broker.store.close()
    return out


def run_points(sizes, batch: int, checkpoint_every: int, workdir: str):
    points = []
    for count in sizes:
        points.append({
            "requests": count,
            "wal": run_mode(count, batch, str(Path(workdir) / f"wal-{count}"),
                            checkpoint_every=checkpoint_every),
        })
        print(f"  n={count:5d}  wal={points[-1]['wal']['bytes_per_request']:8.1f} B/req")
    return points


def evaluate_gates(points, max_wal_bytes: float, max_growth: float) -> dict:
    first, last = points[0], points[-1]
    wal_ratio = (
        last["wal"]["bytes_per_request"] / first["wal"]["bytes_per_request"]
    )
    gates = {
        "wal_bytes_per_request": {
            "value": last["wal"]["bytes_per_request"],
            "limit": max_wal_bytes,
            "ok": last["wal"]["bytes_per_request"] <= max_wal_bytes,
        },
        "wal_flat_in_n": {
            "value": round(wal_ratio, 3),
            "limit": max_growth,
            "ok": wal_ratio <= max_growth,
        },
    }
    gates["ok"] = all(g["ok"] for g in gates.values() if isinstance(g, dict))
    return gates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", default="benchmarks/results/BENCH_durability.json"
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000])
    parser.add_argument("--batch", type=int, default=10)
    parser.add_argument("--checkpoint-every", type=int, default=25)
    parser.add_argument("--max-wal-bytes", type=float, default=4096.0)
    parser.add_argument("--max-growth", type=float, default=1.25)
    args = parser.parse_args(argv)

    print(f"durability bench: sizes={args.sizes} batch={args.batch} "
          f"checkpoint_every={args.checkpoint_every}")
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as workdir:
        points = run_points(args.sizes, args.batch, args.checkpoint_every, workdir)
    gates = evaluate_gates(points, args.max_wal_bytes, args.max_growth)

    record = {
        "bench": "durability",
        "generated_unix": int(time.time()),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "config": {
            "datacenters": NUM_DCS,
            "capacity": CAPACITY,
            "batch": args.batch,
            "checkpoint_every": args.checkpoint_every,
            "sizes": args.sizes,
        },
        "points": points,
        "gates": gates,
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")

    for name, gate in gates.items():
        if isinstance(gate, dict):
            flag = "PASS" if gate["ok"] else "FAIL"
            print(f"  gate {name}: {flag} ({gate})")
    print(f"wrote {out}  ok={gates['ok']}")
    return 0 if gates["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
