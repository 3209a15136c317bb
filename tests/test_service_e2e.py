"""End-to-end tests: a live daemon, the wire protocol, and kill -9.

The first group runs :class:`ServiceDaemon` in-process on a unix socket
and drives it with the load generator.  The last test is the crash
drill from the acceptance criteria: a daemon subprocess is SIGKILLed
between slots and restarted, and the resumed run must end with exactly
the cumulative charged volume (hence cost) of a never-interrupted run.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import ServiceConfig, ServiceDaemon, TransferBroker, run_loadgen
from repro.service import protocol as proto
from repro.service.loadgen import Connection
from repro.service.server import LineServer
from repro.traffic.spec import TransferRequest

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def sample_requests(count, seed=11, max_deadline=6):
    """A deterministic request list (sized for the 6-DC test preset)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        src, dst = rng.choice(6, size=2, replace=False)
        out.append(
            TransferRequest(
                int(src),
                int(dst),
                float(rng.uniform(1.0, 20.0)),
                int(rng.integers(2, max_deadline + 1)),
            )
        )
    return out


def test_daemon_serves_fifty_requests_by_deadline(tmp_path):
    """~50 requests through the full stack: every submission answered,
    every admitted transfer scheduled to complete by its deadline."""
    sock = str(tmp_path / "svc.sock")
    config = ServiceConfig(
        socket_path=sock,
        datacenters=6,
        capacity=60.0,
        tick_seconds=0.05,
        max_deadline=8,
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=3,
    )

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            result = await run_loadgen(
                sample_requests(50),
                socket_path=sock,
                rate_per_min=30000.0,
                drain=True,
            )
        finally:
            await daemon.stop()
        return result, daemon

    result, daemon = asyncio.run(scenario())
    assert result.submitted == 50
    assert result.failed == 0
    assert result.deadline_misses == 0
    assert result.admitted + result.rejected == 50
    assert result.admitted > 0
    assert result.drained
    assert result.stats["checkpoints"] >= 1
    # Decision latency (tick -> response) stays under one slot tick.
    assert max(result.decisions_s) < config.tick_seconds


def test_backpressure_over_the_wire(tmp_path):
    sock = str(tmp_path / "bp.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0,
        tick_seconds=0.0, max_queue=2, max_deadline=8,
    )

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        conn = await Connection.open("", 0, socket_path=sock)
        try:
            responses = []
            waiters = []
            for i in range(3):
                waiters.append(conn.send({
                    "op": "submit", "id": f"bp{i}", "source": 0,
                    "destination": 1, "size_gb": 2.0, "deadline_slots": 2,
                }))
            # Only the overflow submission answers before the tick.
            rejected = await asyncio.wait_for(waiters[2], timeout=2)
            responses.append(rejected)
            tick = await asyncio.wait_for(conn.call({"op": "tick"}), timeout=2)
            first = await asyncio.wait_for(waiters[0], timeout=2)
            second = await asyncio.wait_for(waiters[1], timeout=2)
            return rejected, tick, first, second
        finally:
            await conn.close()
            await daemon.stop()

    rejected, tick, first, second = asyncio.run(scenario())
    assert rejected["ok"] is False
    assert rejected["error"] == "backpressure"
    assert rejected["retry_after_s"] > 0
    assert tick["ok"] and tick["slot"] == 0
    assert first["decision"] == "admitted"
    assert second["decision"] == "admitted"


def test_a_slot_costs_one_wal_fsync_and_status_syncs_before_pending(tmp_path, fsyncs):
    """Admits ride their slot's commit fsync; the one reply that reveals a
    held submission earlier (``status`` -> ``pending``) syncs first."""
    sock = str(tmp_path / "g.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0, tick_seconds=0.0,
        max_deadline=8, checkpoint_dir=str(tmp_path / "ckpt"),
    )

    def submit(i):
        return {"op": "submit", "id": f"g{i}", "source": 0, "destination": 1,
                "size_gb": 2.0, "deadline_slots": 2}

    async def scenario():
        daemon = ServiceDaemon(config)
        fsyncs.clear()  # the fresh directory's generation-0 snapshot
        await daemon.start()
        conn = await Connection.open("", 0, socket_path=sock)
        asker = await Connection.open("", 0, socket_path=sock)
        try:
            waiters = [conn.send(submit(i)) for i in range(8)]
            await asyncio.wait_for(conn.call({"op": "ping"}), timeout=2)
            counts = [len(fsyncs)]  # eight admits written, none synced
            await asyncio.wait_for(conn.call({"op": "tick"}), timeout=2)
            decided = await asyncio.wait_for(asyncio.gather(*waiters), timeout=2)
            counts.append(len(fsyncs))

            held = conn.send(submit(8))
            states = []
            for _ in range(2):
                answer = await asyncio.wait_for(
                    asker.call({"op": "status", "id": "g8"}), timeout=2
                )
                states.append(answer["state"])
                counts.append(len(fsyncs))
            await asyncio.wait_for(conn.call({"op": "tick"}), timeout=2)
            await asyncio.wait_for(held, timeout=2)
            counts.append(len(fsyncs))
            stats = await asyncio.wait_for(conn.call({"op": "stats"}), timeout=2)
            return decided, states, counts, stats
        finally:
            await asker.close()
            await conn.close()
            await daemon.stop()

    decided, states, counts, stats = asyncio.run(scenario())
    assert all(r["ok"] and r["slot"] == 0 for r in decided)
    assert states == ["pending", "pending"]
    # 0 after the admits, 1 after the slot; the first status pays one,
    # the second none; the next slot's commit is one more.
    assert counts == [0, 1, 2, 2, 3]
    assert stats["wal_syncs"] == 3 and stats["wal_records"] == 11


def test_invalid_messages_get_error_responses(tmp_path):
    sock = str(tmp_path / "bad.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0, tick_seconds=0.0,
    )

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        reader, writer = await asyncio.open_unix_connection(sock)
        try:
            out = []
            for raw in (
                b"{broken\n",
                b'{"op": "warp"}\n',
                b'{"op": "resume"}\n',
                b'{"op": "submit", "id": "x", "source": 0, '
                b'"destination": 0, "size_gb": 1, "deadline_slots": 2}\n',
                *(
                    b'{"op": "submit", "id": "%s", "source": %s, "destination": 1, '
                    b'"size_gb": %s, "deadline_slots": 2}\n' % case
                    for case in (
                        (b"nan", b"0", b"NaN"),
                        (b"inf", b"0", b"Infinity"),
                        (b"utf8-\xff", b"0", b"1"),
                        (b"lone-\\ud800", b"0", b"1"),
                        (b"wide", b"123456789012345678901234567890", b"1"),
                    )
                ),
                b'{"op": "ping"}\n',
            ):
                writer.write(raw)
                await writer.drain()
                # A line queued instead of refused would wait for a tick.
                out.append(json.loads(await asyncio.wait_for(reader.readline(), 10)))
            return out
        finally:
            writer.close()
            await daemon.stop()

    bad_json, bad_op, resume, bad_submit, *bad_values, ping = asyncio.run(scenario())
    assert bad_json["error"] == "invalid"
    assert bad_op["error"] == "invalid"
    assert resume["error"] == "invalid" and "unknown op" in resume["message"]
    assert bad_submit["error"] == "invalid" and bad_submit["id"] == "x"
    # Refused at the wire, on the same connection, and never queued: a
    # non-finite size or a datacenter outside the network fails a slot.
    assert [r["error"] for r in bad_values] == ["invalid"] * 5
    assert "not valid JSON" in bad_values[0]["message"]
    assert bad_values[-1]["id"] == "wide" and "datacenters are" in bad_values[-1]["message"]
    assert ping["ok"]


# -- the crash drill -------------------------------------------------------

SERVE_ARGS = [
    "--datacenters", "4", "--capacity", "50", "--seed", "3",
    "--max-deadline", "8", "--tick-seconds", "0",
    "--checkpoint-every", "1",
]


def start_daemon(sock, ckpt_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--checkpoint-dir", ckpt_dir, *SERVE_ARGS],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    deadline = time.time() + 30
    while time.time() < deadline:
        if os.path.exists(sock):
            return proc
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon died on startup:\n{proc.stdout.read().decode()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never bound its socket")


def batch_fields(ids, sizes):
    return [
        {"id": name, "source": i % 3, "destination": 3 - (i % 3),
         "size_gb": size, "deadline_slots": 3}
        for i, (name, size) in enumerate(zip(ids, sizes))
    ]


async def submit_and_tick(sock, batch):
    conn = await Connection.open("", 0, socket_path=sock)
    try:
        waiters = [conn.send({"op": "submit", **fields}) for fields in batch]
        tick = await asyncio.wait_for(conn.call({"op": "tick"}), timeout=30)
        assert tick["ok"]
        responses = await asyncio.wait_for(asyncio.gather(*waiters), timeout=30)
        stats = await asyncio.wait_for(conn.call({"op": "stats"}), timeout=30)
        return responses, stats
    finally:
        await conn.close()


@pytest.mark.slow
def test_kill9_resume_matches_uninterrupted_run(tmp_path):
    """SIGKILL the daemon between slots; the restarted daemon finishes
    the workload with cumulative charged volume (and per-request
    decisions) identical to a run that never died."""
    first = batch_fields([f"a{i}" for i in range(4)], [6.0, 9.0, 4.0, 11.0])
    second = batch_fields([f"b{i}" for i in range(4)], [8.0, 3.0, 10.0, 5.0])

    # Reference: the same workload through one uninterrupted broker.
    reference = TransferBroker(ServiceConfig(
        datacenters=4, capacity=50.0, seed=3, max_deadline=8,
        tick_seconds=0.0,
    ))
    for fields in first:
        reference.submit(dict(fields))
    reference.process_slot()
    for fields in second:
        reference.submit(dict(fields))
    reference.process_slot()
    expected = {k: v["decision"] for k, v in reference.decisions.items()}

    sock = str(tmp_path / "kill.sock")
    ckpt = str(tmp_path / "ckpt")
    proc = start_daemon(sock, ckpt)
    try:
        responses1, stats1 = asyncio.run(submit_and_tick(sock, first))
        assert all(r["ok"] for r in responses1)
        assert stats1["checkpoints"] >= 1
        # kill -9 between slots: no flush, no goodbye.
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()

    os.unlink(sock)
    proc2 = start_daemon(sock, ckpt)
    try:
        responses2, stats2 = asyncio.run(submit_and_tick(sock, second))
        assert stats2["resumed"] is True
        assert stats2["next_slot"] == 2
        assert all(r["ok"] for r in responses2)
        got = {r["id"]: r["decision"] for r in responses1 + responses2}
        assert got == expected
        assert stats2["cost_per_slot"] == pytest.approx(
            round(reference.state.current_cost_per_slot(), 6)
        )
    finally:
        proc2.kill()
        proc2.wait(timeout=10)

    # The newest snapshot on disk carries the same charged volume too.
    from repro.core.checkpoint import load_snapshot
    from repro.service.store import SnapshotStore

    store = SnapshotStore(ckpt)
    snapshot = load_snapshot(
        store.snapshot_path(max(store.snapshot_generations())),
        ServiceConfig(datacenters=4, capacity=50.0, seed=3).topology(),
    )
    assert snapshot.state.charged_snapshot() == pytest.approx(
        reference.state.charged_snapshot()
    )


# -- connection guards (PR 7) ----------------------------------------------


def test_read_timeout_disconnects_idle_connection(tmp_path):
    """An idle connection (nothing in flight) is told off and dropped."""
    sock = str(tmp_path / "rt.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0,
        tick_seconds=0.0, max_deadline=8, read_timeout_s=0.15,
    )

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_unix_connection(sock)
            line = await asyncio.wait_for(reader.readline(), timeout=2.0)
            response = json.loads(line)
            eof = await asyncio.wait_for(reader.readline(), timeout=2.0)
            writer.close()
            return response, eof
        finally:
            await daemon.stop()

    response, eof = asyncio.run(scenario())
    assert response["ok"] is False
    assert response["error"] == "timeout"
    assert eof == b""  # the server hung up after the notice


def test_read_timeout_spares_inflight_submissions(tmp_path):
    """A client waiting on a parked decision is waiting, not stalling."""
    sock = str(tmp_path / "rtw.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0,
        tick_seconds=0.0, max_deadline=8, read_timeout_s=0.1,
    )

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            conn = await Connection.open("", 0, socket_path=sock)
            pending = conn.send({
                "op": "submit", "id": "w-1", "source": 0, "destination": 2,
                "size_gb": 4.0, "deadline_slots": 3,
            })
            # Sit well past the read timeout before ticking the slot.
            await asyncio.sleep(0.3)
            ticker = await Connection.open("", 0, socket_path=sock)
            await ticker.call({"op": "tick"})
            response = await asyncio.wait_for(pending, timeout=2.0)
            await ticker.close()
            await conn.close()
            return response
        finally:
            await daemon.stop()

    response = asyncio.run(scenario())
    assert response["ok"] is True
    assert response["decision"] in ("admitted", "rejected")


def test_oversized_line_is_refused_and_disconnected(tmp_path):
    """A newline-less flood is bounded by the stream limit, not memory."""
    from repro.service import protocol as proto

    sock = str(tmp_path / "big.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0,
        tick_seconds=0.0, max_deadline=8,
    )

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b"x" * (proto.MAX_LINE_BYTES + 1024))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=2.0)
            response = json.loads(line)
            eof = await asyncio.wait_for(reader.readline(), timeout=2.0)
            writer.close()
            return response, eof
        finally:
            await daemon.stop()

    response, eof = asyncio.run(scenario())
    assert response["ok"] is False
    assert response["error"] == "invalid"
    assert "exceeds" in response["message"]
    assert eof == b""


def test_slowloris_is_cut_on_the_complete_line_clock(tmp_path):
    """Bytes that complete no line do not restart the read timeout."""
    sock = str(tmp_path / "slow.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0,
        tick_seconds=0.0, max_deadline=8, read_timeout_s=0.15,
    )

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_unix_connection(sock)
            began = time.perf_counter()
            answer = asyncio.ensure_future(reader.readline())
            for _ in range(40):  # 2 s of dribble, one byte per timeout/3
                if answer.done():
                    break
                writer.write(b"x")
                await asyncio.sleep(config.read_timeout_s / 3)
            line = await asyncio.wait_for(answer, timeout=1.0)
            took = time.perf_counter() - began
            eof = await asyncio.wait_for(reader.readline(), timeout=2.0)
            writer.close()
            return json.loads(line), took, eof
        finally:
            await daemon.stop()

    response, took, eof = asyncio.run(scenario())
    assert response["error"] == "timeout"
    assert took < 1.0  # ~0.15 s; a per-byte clock never fires at all
    assert eof == b""


def test_oversized_line_mid_chunk_stops_the_connection_there(tmp_path):
    """Lines ahead of an oversized one are served, lines behind it are not."""
    sock = str(tmp_path / "mid.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0,
        tick_seconds=0.0, max_deadline=8,
    )
    ping = b'{"op":"ping"}\n'

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(
                ping + ping + b"x" * (proto.MAX_LINE_BYTES + 1) + b"\n"
                + b'{"op":"stats"}\n'
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=2.0)  # to EOF
            writer.close()
            return raw, daemon.metrics.counter_total("service.line_overflow")
        finally:
            await daemon.stop()

    raw, overflows = asyncio.run(scenario())
    answers = [json.loads(line) for line in raw.splitlines()]
    assert [a["op"] for a in answers] == ["ping", "ping", "?"]
    assert answers[2]["error"] == "invalid" and "exceeds" in answers[2]["message"]
    assert overflows == 1


def test_line_split_inside_a_multibyte_character_decodes_the_same(tmp_path):
    """A chunk boundary may fall anywhere, mid-code-point included."""
    sock = str(tmp_path / "utf.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0,
        tick_seconds=0.0, max_deadline=8,
    )
    name = "\u00fc\u4e2d\U0001f600"  # 2 + 3 + 4 bytes on the wire
    line = json.dumps(
        {"op": "submit", "id": name, "source": 0, "destination": 1,
         "size_gb": 2.0, "deadline_slots": 2},
        ensure_ascii=False,
    ).encode() + b"\n"
    first = line.index(name.encode())

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(line + b'{"op":"tick"}\n')
            tick = json.loads(await asyncio.wait_for(reader.readline(), 2.0))
            decided = json.loads(await asyncio.wait_for(reader.readline(), 2.0))
            again = []
            for cut in range(first, first + len(name.encode()) + 1):
                writer.write(line[:cut])
                await asyncio.sleep(0.005)  # the head is read on its own
                writer.write(line[cut:])
                again.append(
                    json.loads(await asyncio.wait_for(reader.readline(), 2.0))
                )
            writer.close()
            return tick, decided, again, daemon.broker.counts["submitted"]
        finally:
            await daemon.stop()

    tick, decided, again, submitted = asyncio.run(scenario())
    assert tick["op"] == "tick"
    assert decided["id"] == name and decided["decision"] == "admitted"
    assert len(again) == 10 and submitted == 1
    # A cached answer is the decision log's record: no measured times.
    logged = {k: v for k, v in decided.items() if k not in ("wait_s", "decision_s")}
    for answer in again:
        assert answer.pop("cached") is True
        assert answer == logged


def test_a_slot_of_answers_costs_a_few_writes_not_one_each(tmp_path):
    """1,000 pipelined submits + a tick: every id answered exactly once,
    in at most three writes (counted, not timed)."""
    sock = str(tmp_path / "bulk.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=6, capacity=60.0,
        tick_seconds=0.0, max_deadline=8, max_queue=2000,
    )
    writes = []

    class CountingDaemon(ServiceDaemon):
        async def _handle_client(self, reader, writer):
            real = writer.write

            def write(data):
                writes.append(len(data))
                real(data)

            writer.write = write
            await super()._handle_client(reader, writer)

    burst = b"".join(
        proto.encode({"op": "submit", "id": f"b{i}", "source": i % 6,
                      "destination": (i + 1 + i % 5) % 6, "size_gb": 0.01,
                      "deadline_slots": 2 + i % 6})
        for i in range(1000)
    ) + b'{"op":"tick"}\n'

    async def scenario():
        daemon = CountingDaemon(config)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(burst)
            lines = [
                json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                for _ in range(1001)
            ]
            writer.close()
            return lines
        finally:
            await daemon.stop()

    lines = asyncio.run(scenario())
    assert lines[0]["op"] == "tick"  # the ack leads its slot's decisions
    assert sorted(a["id"] for a in lines[1:]) == sorted(
        f"b{i}" for i in range(1000)
    )
    assert all(a["ok"] for a in lines)
    assert len(writes) <= 3, writes


def test_a_failed_deferred_answer_is_reported_not_swallowed(tmp_path):
    """A future that fails answers ``internal``; a cancelled one, nothing."""
    sock = str(tmp_path / "boom.sock")
    futures = []

    class Shell(LineServer):
        async def _op_ping(self, message):
            futures.append(asyncio.get_running_loop().create_future())
            return futures[-1]

        async def _op_stats(self, message):
            return {"ok": True, "op": "stats"}

    async def scenario():
        shell = Shell(host="", port=0, socket_path=sock)
        await shell.start()
        try:
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b'{"op":"ping"}\n{"op":"ping","id":"p2"}\n')
            while len(futures) < 2:
                await asyncio.sleep(0.005)
            futures[0].cancel()
            futures[1].set_exception(RuntimeError("boom"))
            failed = json.loads(await asyncio.wait_for(reader.readline(), 1.0))
            writer.write(b'{"op":"stats"}\n')
            after = json.loads(await asyncio.wait_for(reader.readline(), 1.0))
            writer.close()
            return failed, after
        finally:
            await shell.stop()

    failed, after = asyncio.run(scenario())
    assert failed == {"ok": False, "op": "ping", "error": "internal",
                      "message": "boom", "id": "p2"}
    assert after == {"ok": True, "op": "stats"}


# -- re-attach after a hang-up (docs/ROBUSTNESS.md) --------------------------


async def hung_up(server):
    """Wait until ``server`` has let go of every connection."""
    for _ in range(400):
        if server._active_connections == 0:
            return
        await asyncio.sleep(0.005)
    raise AssertionError("the server never saw the hang-up")


def test_reconnect_reattaches_to_a_submission_its_old_connection_left(tmp_path):
    """A hang-up cancels the connection's waiters, so the queued id is
    free for the reconnect to park on: one decision, no ``refused``."""
    sock = str(tmp_path / "re.sock")
    config = ServiceConfig(
        socket_path=sock, datacenters=4, capacity=50.0,
        tick_seconds=0.0, max_deadline=8,
    )
    submit = proto.encode({"op": "submit", "id": "a", "source": 0,
                           "destination": 1, "size_gb": 2.0,
                           "deadline_slots": 2})

    async def scenario():
        daemon = ServiceDaemon(config)
        await daemon.start()
        try:
            _, first = await asyncio.open_unix_connection(sock)
            first.write(submit)
            while daemon.broker.queue.depth < 1:
                await asyncio.sleep(0.005)
            first.close()
            await hung_up(daemon)
            reader, second = await asyncio.open_unix_connection(sock)
            second.write(submit + b'{"op":"tick"}\n')
            lines = [
                json.loads(await asyncio.wait_for(reader.readline(), 2.0))
                for _ in range(2)
            ]
            second.close()
            return lines, daemon.broker.counts["submitted"]
        finally:
            await daemon.stop()

    lines, submitted = asyncio.run(scenario())
    assert [a["op"] for a in lines] == ["tick", "submit"]
    assert lines[1]["id"] == "a" and lines[1]["decision"] == "admitted"
    assert submitted == 1
