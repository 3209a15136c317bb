"""The one NDJSON shell, and the single-broker daemon that rides it.

:class:`LineServer` is the only server-side socket code in the package:
it binds a TCP or unix listener, runs the guarded per-connection read
loop — a chunk at a time, every complete line in it — decodes each line
with :mod:`repro.service.protocol`, and hands the message to
:meth:`LineServer.handle` — a socket-free dispatch onto ``_op_<name>``
methods that *return* the response dict, a future of it, or a
:class:`Reply` slot for answers that wait on a slot.  Every answer goes
to the connection's outbox, which writes what it holds once per
event-loop turn: dicts in request order after each chunk, a future's
or a reply slot's line when it settles, so clients may pipeline and a
slot's decisions leave in one write.  The same ops are reachable with
no socket at all through :meth:`LineServer.call`, which is how tests
drive the daemon.

:class:`ServiceDaemon` is that shell over one
:class:`~repro.service.slotloop.TransferBroker`.  ``submit`` parks the
broker's waiter — a reply slot on the asking connection's outbox, or a
future for socket-free callers — and the slot that batches the
submission settles it once processed (and, when due, checkpointed).
A background
task fires :meth:`TransferBroker.process_slot` every
``config.tick_seconds``; with ``tick_seconds=0`` the clock is manual
and slots advance only on ``tick`` messages — the mode deterministic
tests and the crash-resume harness use.

``drain`` stops intake, flushes the queue slot by slot, writes a final
snapshot, answers ``{"drained": true}``, and shuts the daemon down.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import gc
from typing import Any, Dict, List, Optional, Union

from repro.errors import BackpressureError, ProtocolError, ReproError, ServiceError
from repro.obs import registry as obs
from repro.obs.metrics import MetricsSnapshot
from repro.obs.prom import render_prometheus
from repro.service import protocol
from repro.service.config import ServiceConfig
from repro.service.intake import PendingTransfer
from repro.service.slotloop import SlotFailed, TransferBroker


class Reply:
    """A submit's reply slot on its connection's outbox.

    What the daemon parks as ``PendingTransfer.waiter`` for a socket
    client, where a future would cost a done-callback and a
    ``call_soon`` handle per request: :meth:`set_result` encodes the
    answer into the outbox's reply buffer, which the outbox's one
    scheduled flush of the turn writes; :meth:`cancel` (a hang-up) marks
    it done, so a reconnecting client may re-attach to the queued id.
    """

    __slots__ = ("outbox", "_done")

    def __init__(self, outbox: "_Outbox"):
        self.outbox = outbox
        self._done = False

    def done(self) -> bool:
        return self._done

    def set_result(self, response: Dict[str, Any]) -> None:
        self._done = True
        outbox = self.outbox
        outbox.waiting.discard(self)
        outbox.replies.append(protocol.encode(response))
        outbox.schedule_flush()

    def cancel(self) -> None:
        self._done = True


#: What an op handler returns: the response, or a future or reply slot of it.
Answer = Union[Dict[str, Any], asyncio.Future, Reply]


class LineServer:
    """The NDJSON shell: listener, read loop, dispatch, delivery.

    Subclasses define ``async def _op_<name>(self, message) -> Answer``
    for the ops of :data:`~repro.service.protocol.OPS` they serve and
    never see a socket; :func:`~repro.service.protocol.decode_line`
    refuses any other op before dispatch.  An op named in
    ``outbox_ops`` is also handed the asking connection's outbox (None
    through :meth:`call`), to park a :class:`Reply` on it.
    """

    #: Ops whose handler takes ``(message, outbox)``.
    outbox_ops: frozenset = frozenset()

    def __init__(
        self,
        *,
        host: str,
        port: int,
        socket_path: Optional[str],
        read_timeout_s: float = 0.0,
    ):
        self.host = host
        self.listen_port = port
        self.socket_path = socket_path
        self.read_timeout_s = read_timeout_s
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()
        self._stopping: Optional[asyncio.Task] = None
        self._active_connections = 0
        self._ops = {
            op: getattr(self, f"_op_{op}")
            for op in protocol.OPS
            if hasattr(self, f"_op_{op}")
        }

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        """Start whatever serves ops without a socket (subclass hook);
        :meth:`start` opens and then binds."""

    async def start(self) -> None:
        """Open, then bind the listener."""
        self.open()
        # The stream limit bounds what the transport buffers ahead of
        # the read loop, which itself carries at most one max line.
        if self.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.listen_port,
                limit=protocol.MAX_LINE_BYTES,
            )

    async def run_until_stopped(self) -> None:
        """Serve until ``drain`` (or ``stop``) completes."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Tear the listener down; idempotent."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self._stopped.set()

    def _stop_soon(self) -> None:
        """Stop once the answer being built is out (``drain``'s last act)."""
        self._stopping = asyncio.create_task(self.stop())

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port (for ``port=0`` ephemeral binds)."""
        if self._server is None or self.socket_path:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def endpoint(self) -> str:
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port or self.listen_port}"

    # -- socket-free entry -------------------------------------------------

    async def handle(
        self, message: Dict[str, Any], outbox: Optional["_Outbox"] = None
    ) -> Answer:
        """Dispatch one decoded message to its op handler."""
        op = message["op"]
        handler = self._ops[op]
        if op in self.outbox_ops:
            return await handler(message, outbox)
        return await handler(message)

    async def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request, one answer, no socket."""
        answer = await self.handle(message)
        return answer if isinstance(answer, dict) else await answer

    # -- connection handling -----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs.counter("service.connections")
        self._active_connections += 1
        obs.gauge("service.connections.active", self._active_connections)
        outbox = _Outbox(writer)
        try:
            await self._serve_connection(reader, outbox)
            outbox.flush_all()  # the guards' parting notice; close() sends it
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels in-flight handlers; the noise of letting
            # this propagate is asyncio logging a spurious traceback.
            pass
        finally:
            self._active_connections -= 1
            obs.gauge("service.connections.active", self._active_connections)
            outbox.abandon()
            writer.close()
            # CancelledError included: stop() cancels handlers that are
            # parked right here, and that must stay quiet too.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_connection(self, reader, outbox: _Outbox) -> None:
        """The read loop: every complete line of a chunk, then one drain.

        Returns when the connection is to be closed.  Two abuse guards:
        a line — complete, or still growing in the carried tail — longer
        than ``MAX_LINE_BYTES`` is answered with a protocol error and
        the connection dropped, so a newline-less client cannot grow
        memory past one max line; and with ``read_timeout_s`` a
        connection that completes no line within the timeout is told
        off and dropped.  That clock restarts on a complete line, not
        on a byte (a slowloris dribble does not reset it), and a client
        parked on in-flight decisions is waiting, not stalling, so it
        does not count against it.
        """
        limit = protocol.MAX_LINE_BYTES
        timeout = self.read_timeout_s
        clock = asyncio.get_running_loop().time
        deadline = clock() + timeout
        tail = b""
        while True:
            if timeout > 0:
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(limit), deadline - clock()
                    )
                except asyncio.TimeoutError:
                    # Parked, or its answer not yet written: waiting.
                    if outbox.waiting or outbox.replies:
                        deadline = clock() + timeout
                        continue
                    obs.counter("service.read_timeout")
                    outbox.put(protocol.error_response(
                        "?", "timeout",
                        f"no complete request line within {timeout}s; "
                        "closing connection",
                    ))
                    return
            else:
                chunk = await reader.read(limit)
            if not chunk:
                return
            *lines, tail = (tail + chunk).split(b"\n")
            for line in lines:
                if len(line) > limit:
                    break
                if line.strip():
                    await self._serve_line(line, outbox)
            else:
                line = tail  # none of them too long: is what follows?
            if len(line) > limit:
                obs.counter("service.line_overflow")
                outbox.put(protocol.error_response(
                    "?", "invalid",
                    f"request line exceeds {limit} bytes; closing connection",
                ))
                return
            # Inline answers leave in request order, once per chunk, and
            # a client that does not read them stops this loop here.
            outbox.flush()
            await outbox.writer.drain()
            if lines:
                deadline = clock() + timeout

    async def _serve_line(self, line: bytes, outbox: _Outbox) -> None:
        try:
            message = protocol.decode_line(line)
        except ProtocolError as exc:
            outbox.put(protocol.error_response("?", "invalid", str(exc)))
            return
        answer = await self.handle(message, outbox)
        if isinstance(answer, dict):
            outbox.put(answer)
        else:
            outbox.defer(message, answer)


class _Outbox:
    """One connection's answers, written once per event-loop turn.

    Inline answers are appended by the read loop, which flushes after
    each chunk; a future's answer is appended when it settles, and a
    reply slot's goes to a buffer of its own that only the scheduled
    flush writes — so a slot's decisions leave after the chunk that
    ticked it, never among its inline answers.  The first deferred
    answer of a turn schedules the flush that carries them all.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lines: List[bytes] = []
        #: Settled reply slots' lines, written by the scheduled flush.
        self.replies: List[bytes] = []
        #: Futures and reply slots this connection still owes a line for.
        self.waiting: set = set()
        self._flush_due = False

    def put(self, message: Dict[str, Any]) -> None:
        self.lines.append(protocol.encode(message))

    def defer(self, message: Dict[str, Any], answer: Answer) -> None:
        """Owe ``message`` an answer: a reply slot writes itself when
        set, a future's line is put when it settles."""
        self.waiting.add(answer)
        if type(answer) is not Reply:
            answer.add_done_callback(functools.partial(self._settle, message))

    def _settle(self, message: Dict[str, Any], future: asyncio.Future) -> None:
        self.waiting.discard(future)
        if future.cancelled():
            return
        exc = future.exception()
        if exc is None:
            self.put(future.result())
        else:
            # A silent failure would park the client forever.
            about = {"id": message["id"]} if "id" in message else {}
            self.put(protocol.error_response(
                message["op"], "internal", str(exc), **about
            ))
        self.schedule_flush()

    def schedule_flush(self) -> None:
        if not self._flush_due:
            self._flush_due = True
            asyncio.get_running_loop().call_soon(self.flush_all)

    def flush(self) -> None:
        """Write the inline answers (and settled futures' lines): the
        read loop's write after each chunk."""
        self._write(self.lines)

    def flush_all(self) -> None:
        """Write everything owed so far: a turn's scheduled flush, and a
        connection's last."""
        self._flush_due = False
        self._write(self.lines)
        self._write(self.replies)

    def _write(self, lines: List[bytes]) -> None:
        if lines and not self.writer.is_closing():
            self.writer.write(b"".join(lines))
            lines.clear()

    def abandon(self) -> None:
        """The connection is gone: cancel what it still waits on.

        Cancelled, not merely forgotten: ``TransferBroker.submit`` lets
        a reconnecting client re-park on a queued id only once the old
        waiter — reply slot or future — is ``done()``.
        """
        for waiter in self.waiting:
            waiter.cancel()


class ServiceDaemon(LineServer):
    """One transfer broker behind the shell."""

    outbox_ops = frozenset({"submit"})

    def __init__(self, config: ServiceConfig):
        super().__init__(
            host=config.host, port=config.port,
            socket_path=config.socket_path,
            read_timeout_s=config.read_timeout_s,
        )
        self.config = config
        self.broker = TransferBroker(config)
        #: The live telemetry fold the ``metrics`` op serves from
        #: (attached to the default registry for the daemon's lifetime;
        #: None when ``config.telemetry`` is off).
        self.metrics: Optional[MetricsSnapshot] = (
            MetricsSnapshot() if config.telemetry else None
        )
        self._clock_task: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        """Attach the metrics sink and start the slot clock (if automatic)."""
        if self.metrics is not None:
            obs.get_registry().add_sink(self.metrics)
        if self.config.tick_seconds > 0:
            self._clock_task = asyncio.create_task(self._slot_clock())

    async def start(self) -> None:
        """Bind, then freeze what start-up left live (path table, modules)
        so no full collection walks it inside a slot; :meth:`stop` thaws it."""
        await super().start()
        gc.collect()
        gc.freeze()

    async def stop(self) -> None:
        """Tear the clock and listener down and thaw the heap; idempotent."""
        clock, self._clock_task = self._clock_task, None
        if clock is not None:
            clock.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await clock
        await super().stop()
        if self.metrics is not None:
            obs.get_registry().remove_sink(self.metrics)
        gc.unfreeze()

    # -- the slot clock ----------------------------------------------------

    async def _slot_clock(self) -> None:
        while True:
            await asyncio.sleep(self.config.tick_seconds)
            self._run_slot()

    def _run_slot(self) -> None:
        """Process one slot and deliver its decisions to waiters."""
        try:
            resolutions = self.broker.process_slot()
        except SlotFailed as exc:
            self._fail_waiters(exc)
            return
        for pending, record in resolutions:
            self._resolve(pending, {"ok": True, "op": "submit", **record})

    def _fail_waiters(self, exc: SlotFailed) -> None:
        """A scheduler failure must not wedge clients: its batch (only —
        the queue behind it is the next slot's) hears ``internal``."""
        for pending in exc.batch:
            self._resolve(
                pending,
                protocol.error_response(
                    "submit", "internal", str(exc), id=pending.client_id
                ),
            )

    @staticmethod
    def _resolve(pending: PendingTransfer, response: Dict[str, Any]) -> None:
        waiter = pending.waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(response)

    # -- ops ---------------------------------------------------------------

    async def _op_submit(self, message, outbox: Optional[_Outbox]) -> Answer:
        try:
            fields = protocol.validate_submit(
                message, self.config.max_deadline, self.config.datacenters)
        except ProtocolError as exc:
            return protocol.error_response(
                "submit", "invalid", str(exc), id=message.get("id")
            )
        waiter = (
            Reply(outbox) if outbox is not None
            else asyncio.get_running_loop().create_future()
        )
        try:
            outcome, value = self.broker.submit(fields, waiter)
        except BackpressureError as exc:
            return protocol.error_response(
                "submit", "backpressure", str(exc),
                id=fields["id"], retry_after_s=exc.retry_after_s,
            )
        except ServiceError as exc:
            return protocol.error_response(
                "submit", "refused", str(exc), id=fields["id"]
            )
        if outcome == "decided":
            return {"ok": True, "op": "submit", "cached": True, **value}
        return waiter

    async def _op_status(self, message) -> Answer:
        client_id = str(message.get("id", ""))
        return {"ok": True, "op": "status", "id": client_id,
                **self.broker.status(client_id)}

    async def _op_stats(self, message) -> Answer:
        return {"ok": True, "op": "stats", **self.broker.stats()}

    async def _op_ping(self, message) -> Answer:
        return {"ok": True, "op": "ping", "version": protocol.PROTOCOL_VERSION}

    async def _op_metrics(self, message) -> Answer:
        """Serve the live telemetry snapshot (versioned, two formats).

        ``format: "json"`` (default) answers the full structured body:
        broker stats, SLO states, the metrics snapshot (histograms with
        p50/p90/p99, counters, gauges), and the wall-clock mapping.
        ``format: "prometheus"`` answers ``{"text": ...}`` holding the
        exposition body instead.
        """
        fmt = message.get("format", "json")
        if fmt not in protocol.METRICS_FORMATS:
            known = ", ".join(protocol.METRICS_FORMATS)
            return protocol.error_response(
                "metrics", "invalid",
                f"unknown format {fmt!r}; expected one of: {known}",
            )
        body = self.broker.telemetry(self.metrics)
        if fmt == "prometheus":
            text = render_prometheus({**body["snapshot"], "slo": body["slo"]})
            body = {"text": text}
        return {"ok": True, "op": "metrics",
                "version": protocol.PROTOCOL_VERSION, "format": fmt, **body}

    async def _op_tick(self, message) -> Answer:
        if self.config.tick_seconds > 0:
            return protocol.error_response(
                "tick", "refused",
                "slot clock is automatic; tick is only valid with "
                "tick_seconds=0",
            )
        slot = self.broker.next_slot
        self._run_slot()
        return {"ok": True, "op": "tick", "slot": slot,
                "next_slot": self.broker.next_slot}

    async def _op_drain(self, message) -> Answer:
        try:
            resolutions = self.broker.drain_remaining()
        except ReproError as exc:
            if isinstance(exc, SlotFailed):
                self._fail_waiters(exc)
            return protocol.error_response("drain", "internal", str(exc))
        for pending, record in resolutions:
            self._resolve(pending, {"ok": True, "op": "submit", **record})
        # One turn for the resolved waiters' lines to be written ahead
        # of the drain ack — clients treat the ack as "all decisions
        # are out".
        await asyncio.sleep(0)
        self._stop_soon()
        return {"ok": True, "op": "drain", "drained": True,
                **self.broker.stats()}
