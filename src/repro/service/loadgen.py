"""A load generator for the transfer-broker daemon.

Replays a :mod:`repro.traffic` workload (or an explicit trace file)
against a running daemon at a configurable request rate, obeying
backpressure (honouring ``retry_after_s`` with a bounded retry budget),
and reports sustained throughput plus latency percentiles.

Three latencies are tracked per request, matching the service's
admission-latency definition (docs/SERVICE.md):

* ``rtt_s`` — submit-to-response round trip as the client sees it
  (includes the intentional batching wait for the next slot tick);
* ``wait_s`` — server-reported queue wait (submission to slot tick);
* ``decision_s`` — server-reported slot-tick-to-decision time, the
  quantity the service gates under one tick.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import orjson

from repro.errors import ServiceError
from repro.obs.slo import percentile
from repro.service import protocol
from repro.traffic.spec import TransferRequest


@dataclass
class LoadGenResult:
    """Everything one load-generator run measured."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    failed: int = 0
    backpressure_retries: int = 0
    deadline_misses: int = 0
    elapsed_s: float = 0.0
    rtts_s: List[float] = field(default_factory=list)
    waits_s: List[float] = field(default_factory=list)
    decisions_s: List[float] = field(default_factory=list)
    drained: bool = False
    stats: Dict[str, Any] = field(default_factory=dict)
    #: "open" (paced arrivals) or "closed" (fixed concurrency).
    mode: str = "open"
    #: Concurrency of a closed-loop run (0 in open-loop mode).
    outstanding: int = 0

    @property
    def throughput_per_min(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return 60.0 * self.submitted / self.elapsed_s

    @property
    def capacity_per_s(self) -> float:
        """Sustained decisions per second at fixed concurrency — the
        capacity a closed-loop run measures (req/s; also defined, if
        less meaningful, for open-loop runs)."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.submitted / self.elapsed_s

    def summary(self) -> Dict[str, Any]:
        """The flat record the CLI prints and the bench commits."""
        return {
            "mode": self.mode,
            "outstanding": self.outstanding,
            "capacity_per_s": round(self.capacity_per_s, 2),
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "failed": self.failed,
            "backpressure_retries": self.backpressure_retries,
            "deadline_misses": self.deadline_misses,
            "elapsed_s": round(self.elapsed_s, 3),
            "throughput_per_min": round(self.throughput_per_min, 1),
            "rtt_p50_s": round(percentile(self.rtts_s, 50), 6),
            "rtt_p99_s": round(percentile(self.rtts_s, 99), 6),
            "wait_p50_s": round(percentile(self.waits_s, 50), 6),
            "wait_p99_s": round(percentile(self.waits_s, 99), 6),
            "decision_p50_s": round(percentile(self.decisions_s, 50), 6),
            "decision_p99_s": round(percentile(self.decisions_s, 99), 6),
            "drained": self.drained,
        }


class Connection:
    """One NDJSON client connection with id-matched response futures."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.waiters: Dict[str, asyncio.Future] = {}
        self.control: List[asyncio.Future] = []
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(
        cls, host: str, port: int, socket_path: Optional[str] = None
    ) -> "Connection":
        if socket_path:
            reader, writer = await asyncio.open_unix_connection(socket_path)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                message = orjson.loads(line)
                client_id = message.get("id")
                waiter = self.waiters.pop(str(client_id), None) if client_id else None
                if waiter is None and self.control:
                    waiter = self.control.pop(0)
                if waiter is not None and not waiter.done():
                    waiter.set_result(message)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            failure = ServiceError("connection closed by daemon")
            for waiter in [*self.waiters.values(), *self.control]:
                if not waiter.done():
                    waiter.set_exception(failure)
            self.waiters.clear()
            self.control.clear()

    def send(self, message: Dict[str, Any]) -> asyncio.Future:
        """Write one request; the returned future resolves on response.

        ``submit``/``status`` responses are matched by ``id``; anything
        else (stats, drain, tick, ping) resolves in FIFO order, so keep
        at most a pipeline of one such control call in flight.
        """
        future = asyncio.get_running_loop().create_future()
        if self._reader_task.done():
            # The read loop's cleanup already failed every registered
            # waiter; a future registered now would hang forever.
            future.set_exception(ServiceError("connection closed by daemon"))
            return future
        client_id = message.get("id")
        if message.get("op") in ("submit", "status") and client_id is not None:
            self.waiters[str(client_id)] = future
        else:
            self.control.append(future)
        self.writer.write(protocol.encode(message))
        return future

    async def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return await self.send(message)

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except Exception:
            pass


async def run_loadgen(
    requests: Sequence[TransferRequest],
    *,
    host: str = "127.0.0.1",
    port: int = 7411,
    socket_path: Optional[str] = None,
    rate_per_min: float = 1000.0,
    max_retries: int = 8,
    drain: bool = False,
    outstanding: int = 0,
) -> LoadGenResult:
    """Replay ``requests`` against a daemon.

    Two modes:

    * **Open loop** (default): submissions are paced at
      ``rate_per_min`` (fixed inter-arrival gap); each response is
      awaited concurrently so slow slots don't stall the arrival
      process.  Measures latency at an offered rate.
    * **Closed loop** (``outstanding=N > 0``): exactly N submissions
      are kept in flight — each response immediately triggers the next
      submission, ignoring ``rate_per_min``.  Measures *capacity*
      (sustained req/s at fixed concurrency).

    Backpressure rejections sleep the advertised ``retry_after_s`` and
    retry up to ``max_retries`` times before the request counts as
    ``failed``.
    """
    conn = await Connection.open(host, port, socket_path)
    result = LoadGenResult()
    if outstanding > 0:
        result.mode = "closed"
        result.outstanding = outstanding
    gap = 60.0 / rate_per_min if rate_per_min > 0 else 0.0

    async def submit_one(index: int, request: TransferRequest) -> None:
        client_id = f"lg-{index:06d}"
        message = {
            "op": "submit",
            "id": client_id,
            "source": request.source,
            "destination": request.destination,
            "size_gb": request.size_gb,
            "deadline_slots": request.deadline_slots,
        }
        started = time.perf_counter()
        for _ in range(max_retries + 1):
            response = await conn.call(dict(message))
            if response.get("ok"):
                result.rtts_s.append(time.perf_counter() - started)
                result.submitted += 1
                if response.get("decision") == "admitted":
                    result.admitted += 1
                    completion = response.get("completion_slot")
                    deadline = response.get("deadline_slot")
                    if (
                        completion is not None
                        and deadline is not None
                        and completion > deadline
                    ):
                        result.deadline_misses += 1
                else:
                    result.rejected += 1
                if isinstance(response.get("wait_s"), (int, float)):
                    result.waits_s.append(float(response["wait_s"]))
                if isinstance(response.get("decision_s"), (int, float)):
                    result.decisions_s.append(float(response["decision_s"]))
                return
            if response.get("error") == "backpressure":
                result.backpressure_retries += 1
                await asyncio.sleep(float(response.get("retry_after_s", 0.1)))
                continue
            result.failed += 1
            return
        result.failed += 1

    next_index = 0

    async def closed_loop_worker() -> None:
        # One of N lanes: submit, await the decision, submit the next.
        # next_index mutation is safe — workers only interleave at
        # awaits, and the read-increment below has none.
        nonlocal next_index
        while next_index < len(requests):
            index = next_index
            next_index += 1
            await submit_one(index, requests[index])

    started = time.perf_counter()
    in_flight: List[asyncio.Task] = []
    try:
        if outstanding > 0:
            lanes = min(outstanding, len(requests))
            in_flight = [
                asyncio.create_task(closed_loop_worker()) for _ in range(lanes)
            ]
        else:
            for index, request in enumerate(requests):
                in_flight.append(
                    asyncio.create_task(submit_one(index, request))
                )
                if gap > 0 and index + 1 < len(requests):
                    await asyncio.sleep(gap)
        if in_flight:
            await asyncio.gather(*in_flight)
        result.elapsed_s = time.perf_counter() - started
        if drain:
            response = await conn.call({"op": "drain"})
            result.drained = bool(response.get("drained"))
            result.stats = {
                k: v for k, v in response.items() if k not in ("ok", "op", "drained")
            }
        else:
            response = await conn.call({"op": "stats"})
            result.stats = {
                k: v for k, v in response.items() if k not in ("ok", "op")
            }
    finally:
        for task in in_flight:
            if not task.done():
                task.cancel()
        await conn.close()
    return result
