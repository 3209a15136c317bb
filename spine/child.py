"""One round: a fresh process drives one workload through the real path.

unix socket -> ``ServiceDaemon`` -> ``TransferBroker`` -> hybrid lane ->
ledger -> ack, with ``tick_seconds=0`` so the slot clock is in no
number.  One process, one thread, one event loop, one connection: per
slot the driver writes ``B`` pre-encoded submit lines plus a tick in one
buffer and reads until it holds ``B`` decisions and the tick ack
(closed loop, concurrency ``B``; nothing sleeps).

Run by ``run.py`` as ``python3 spine/child.py '<json args>'`` with the
working directory set to a scratch directory under ``spine/out/``; the
last line of stdout is the round's JSON report.
"""

from time import perf_counter

ENTRY = perf_counter()  # set-up time starts here, before any heavy import

import asyncio
import json
import resource
import statistics
import sys
from pathlib import Path

from calibrate import factor, kernel

SPINE = Path(__file__).resolve().parent
SOCKET = "broker.sock"  # relative: unix socket paths are short-limited
CHECKPOINT_DIR = "checkpoints"
WINDOW_FILE = "windows.json"


def _import_program():
    """Put this checkout's ``src/`` first and refuse any other ``repro``."""
    source = (SPINE.parent / "src").resolve()
    sys.path.insert(0, str(source))
    import repro

    if source not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro resolved to {repro.__file__}, not {source}")


async def _drive(daemon, buffers, batch, warm, interval_slots, on_timed_start):
    """Push every slot's buffer through the socket; time the timed ones.

    The kernel runs before the first timed slot and after every
    ``interval_slots`` of them, so each interval is bracketed.
    """
    await daemon.start()
    reader, writer = await asyncio.open_unix_connection(SOCKET)
    responses = []        # every submit response, warm-up included
    slot_raw_s = []       # per timed slot
    slot_latency_s = []   # per timed slot: raw seconds per decision
    slot_starts = []
    kernels = []
    driver_s = 0.0
    setup_end = 0.0
    try:
        for index, buffer in enumerate(buffers):
            timed = index >= warm
            if index == warm:
                setup_end = perf_counter()
                kernels.append(kernel())
                on_timed_start()
            latencies = []
            pending, ticked, tail = batch, False, b""
            began = perf_counter()
            writer.write(buffer)
            await writer.drain()
            while pending or not ticked:
                chunk = await reader.read(1 << 18)
                woke = perf_counter()
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                *lines, tail = (tail + chunk).split(b"\n")
                for line in lines:
                    message = json.loads(line)
                    if message.get("op") == "tick":
                        ticked = True
                        continue
                    responses.append(message)
                    latencies.append(perf_counter() - began)
                    pending -= 1
                driver_s += (perf_counter() - woke) if timed else 0.0
            if timed:
                slot_raw_s.append(perf_counter() - began)
                slot_latency_s.append(latencies)
                slot_starts.append(began)
                if len(slot_raw_s) % interval_slots == 0:
                    kernels.append(kernel())
        if len(slot_raw_s) % interval_slots:
            kernels.append(kernel())  # closes a last, shorter interval
    finally:
        writer.close()
        await daemon.stop()
    return {
        "responses": responses, "slot_raw_s": slot_raw_s,
        "slot_latency_s": slot_latency_s, "slot_starts": slot_starts,
        "kernels": kernels, "driver_s": driver_s, "setup_end": setup_end,
    }


def run_round(args):
    """Set up, drive, gate and summarise one round; returns the report."""
    _import_program()
    import gate
    import trace as spine_trace
    from workloads import (
        COMMON_CONFIG, WORKLOADS, encode_slot, generate, slot_counts,
        write_window_file,
    )
    from repro.service.config import ServiceConfig
    from repro.service.server import ServiceDaemon

    workload = WORKLOADS[args["workload"]]
    warm, timed = slot_counts(workload, args["smoke"])
    batches = generate(workload, args["seed"], warm + timed)
    buffers = [encode_slot(batch) for batch in batches]

    config = dict(COMMON_CONFIG, socket_path=SOCKET, **workload.config)
    if workload.config.get("wal"):
        config["checkpoint_dir"] = CHECKPOINT_DIR
    if workload.windows is not None:
        write_window_file(workload.windows, args["seed"], Path(WINDOW_FILE))
        config["link_schedule_path"] = WINDOW_FILE

    tracer = None
    if args["trace"]:  # "spans" or "counts"
        # Before construction: attach_forecast binds provider.reservation.
        tracer = spine_trace.Tracer()
        tracer.install(args["trace"])
    daemon_config = ServiceConfig(**config)

    async def session():
        daemon = ServiceDaemon(daemon_config)
        return daemon, await _drive(
            daemon, buffers, workload.batch, warm, workload.interval_slots,
            tracer.mark if tracer else lambda: None,
        )

    daemon, run = asyncio.run(session())
    broker = daemon.broker
    # Before the gate below runs more of the program (and of the tracer).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        columns = tracer.columns()
        counts = tracer.counts_since_mark()

    # -- calibrated time ---------------------------------------------------
    kernels = run["kernels"]
    step = workload.interval_slots
    slot_factor = [
        factor(kernels[i // step], kernels[i // step + 1]) for i in range(timed)
    ]
    raw_s = sum(run["slot_raw_s"])
    cal_s = sum(r * f for r, f in zip(run["slot_raw_s"], slot_factor))
    decided = sum(len(lat) for lat in run["slot_latency_s"])
    setup_raw_s = run["setup_end"] - ENTRY

    submitted = [message for batch in batches for message in batch]
    # One tick per buffer, so the broker's slot number is the buffer index.
    timed_decisions = [
        r for r in run["responses"] if r.get("ok") and r["slot"] >= warm
    ]
    first_of_slot = {}
    for response in timed_decisions:
        first_of_slot.setdefault(response["slot"], response)

    report = {
        "workload": workload.name, "seed": args["seed"],
        "slots": timed, "decided": decided,
        # By the round's median kernel: one sample beside the imports is
        # noise, the box's sustained speed is not (README.md, "Set-up").
        "setup_s": setup_raw_s * factor(statistics.median(kernels)),
        "setup_raw_s": setup_raw_s,
        "timed_s": cal_s, "timed_raw_s": raw_s,
        "kernel_s": statistics.median(kernels),
        "latency_ms": [
            round(lat * f * 1e3, 4)
            for lats, f in zip(run["slot_latency_s"], slot_factor) for lat in lats
        ],
        "latency_raw_ms": [
            round(lat * 1e3, 4) for lats in run["slot_latency_s"] for lat in lats
        ],
        "driver_s": run["driver_s"] * cal_s / raw_s,
        "peak_rss_mb": peak_rss_mb,
        "wait_ms_p50": statistics.median(
            r["wait_s"] * 1e3 * slot_factor[r["slot"] - warm]
            for r in timed_decisions
        ),
        "decision_ms_p50": statistics.median(
            r["decision_s"] * 1e3 * slot_factor[slot - warm]
            for slot, r in first_of_slot.items()
        ),
        "escalated_share": (
            sum(r["lane"] == "lp" for r in first_of_slot.values()) / timed
        ),
    }

    # -- durability layer --------------------------------------------------
    stats = broker.stats()
    report["wal_bytes_per_request"] = stats["wal_bytes"] / stats["submitted"]
    report["snapshot_kb_last"] = 0.0
    report["recover_ms"] = 0.0
    recovered = None
    if broker.store is not None:
        from repro.service.slotloop import TransferBroker

        broker.store.close()
        newest = broker.store.snapshot_path(max(broker.store.snapshot_generations()))
        report["snapshot_kb_last"] = newest.stat().st_size / 1024
        k0 = kernel()
        began = perf_counter()
        recovered = TransferBroker(daemon_config)
        took = perf_counter() - began
        report["recover_ms"] = took * 1e3 * factor(k0, kernel())
        recovered.store.close()

    # -- the gate and the books ----------------------------------------------
    report["failures"] = gate.check_round(
        submitted, run["responses"], broker, recovered
    )
    report.update(gate.books(submitted, run["responses"], broker))

    if args["trace"] == "spans":
        scale = cal_s / raw_s
        report["spans"] = {
            name: {"calls": row["calls"], "self_s": row["self_s"] * scale}
            for name, row in spine_trace.aggregate(columns).items()
        }
        report["lp_shapes"] = tracer.lp_shapes_since_mark()
        spine_trace.write_trace(
            SPINE / "out" / f"trace-{workload.name}.json",
            columns, run["slot_starts"],
        )
    elif args["trace"] == "counts":
        report["counts"] = counts
    return report


def replay_bills(args):
    """Bill of the same request stream under the LP alone and the fast lane alone.

    Untimed.  ``lp_pressure`` only: the bill-quality side of the
    hybrid's escalation trade, on a multi-slot stream.
    """
    _import_program()
    from workloads import COMMON_CONFIG, WORKLOADS, generate, slot_counts
    from repro.registry import make_scheduler
    from repro.service.config import ServiceConfig
    from repro.traffic.spec import TransferRequest

    workload = WORKLOADS[args["workload"]]
    warm, timed = slot_counts(workload, args["smoke"])
    batches = generate(workload, args["seed"], warm + timed)
    config = ServiceConfig(**COMMON_CONFIG)
    bills = {}
    for name in ("postcard", "heuristic"):
        scheduler = make_scheduler(name, config.topology(), config.horizon)
        for slot, batch in enumerate(batches):
            scheduler.on_slot(slot, [
                TransferRequest(
                    m["source"], m["destination"], m["size_gb"],
                    m["deadline_slots"], release_slot=slot,
                )
                for m in batch
            ])
        state = scheduler.state
        rejected_gb = sum(r.size_gb for r in state.rejected)
        offered_gb = sum(m["size_gb"] for batch in batches for m in batch)
        bills[name] = (
            state.current_cost_per_slot() * len(batches)
            / (offered_gb - rejected_gb)
        )
    return {"bill_per_gb": bills}


def main(argv):
    args = json.loads(argv[1])
    report = replay_bills(args) if args.get("replay") else run_round(args)
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
