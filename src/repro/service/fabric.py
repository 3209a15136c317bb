"""The broker fabric: a fleet of per-region shards behind one front end.

One :class:`~repro.service.slotloop.TransferBroker` bounds admission
throughput at a single slot loop and a single ledger.  The fabric goes
planetary: a :class:`~repro.service.router.ShardMap` deterministically
assigns every submission to the shard owning its *source* datacenter,
each shard runs its own broker (own ledger, own checkpoint dir, own
charging clock), and a transfer whose source and destination live on
different shards is decomposed into a **relay** through a configured
gateway datacenter — leg A (source -> gateway) on the source shard,
leg B (gateway -> destination) chained onto the destination shard when
leg A commits.

One driver runs the relay state machine: :class:`FleetRouter`, a
:class:`~repro.service.server.LineServer` speaking the same NDJSON
protocol a single daemon speaks (clients cannot tell the difference).
It forwards by shard map, chains relay legs on decision, and *parks*
legs whose shard dies — a reconnect (lazy, or via the ``resume`` op)
resubmits them, and the shard's idempotent decision log guarantees
each leg is decided exactly once.  A shard is anything with
``call/close/is_closed``: a client connection to a listening daemon,
or — for an empty endpoint — a :class:`ServiceDaemon` the router
builds and calls in-process, which is how tests run the production
driver with no sockets.

Relay semantics (documented in docs/SERVICE.md): leg ids are
``<id>#a`` / ``<id>#b``, the deadline budget is split
ceil/floor between the legs, and each leg's deadline is guaranteed by
its own shard's admission — the end-to-end latency additionally pays
the chaining wait for leg A's decision.  A rejected leg A means leg B
is never submitted; the relay's composite decision is ``rejected``.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError, ServiceError
from repro.obs.metrics import rollup_snapshots
from repro.service import protocol
from repro.service.config import ServiceConfig
from repro.service.loadgen import Connection, parse_endpoint
from repro.service.router import DEFAULT_VNODES, ShardMap
from repro.service.server import Answer, LineServer, ServiceDaemon

#: Relay leg lifecycle.
LEG_WAITING = "waiting"      # planned, not yet submitted to its shard
LEG_INFLIGHT = "inflight"    # submitted; decision pending
LEG_PARKED = "parked"        # shard went down mid-flight; resume later
LEG_DECIDED = "decided"

#: Leg-id separator; a client id containing it is refused at the
#: router so direct ids can never collide with relay leg ids.
LEG_SEP = "#"

#: Backpressure retries per relay leg before the relay fails.
LEG_MAX_RETRIES = 8


class ShardDownError(ServiceError):
    """A shard's connection is gone; the caller parks or reports."""


@dataclass
class FleetConfig:
    """Everything needed to (re)build one broker fleet.

    ``shards`` maps shard name -> endpoint string (``unix:/path`` or
    ``host:port``; empty for a shard the router runs in-process).
    ``shard`` is the :class:`ServiceConfig` every shard runs with, its
    endpoint and ``checkpoint_dir`` aside: the *same* topology
    everywhere — any shard must be able to schedule any relay leg, and
    the router prices relay hops on ``shard.topology()`` without asking
    one — but each shard owns its ledger, its checkpoint dir under
    ``checkpoint_root``, and its charging clock.  ``gateway_dc`` is the
    hop datacenter cross-shard relays route through.
    """

    shards: Dict[str, str]
    gateway_dc: int = 0
    #: "fixed" routes every cross-shard relay through ``gateway_dc``;
    #: "cheapest" picks the gateway per transfer from link prices.
    gateway_mode: str = "fixed"
    checkpoint_root: Optional[str] = None
    shard: ServiceConfig = field(default_factory=ServiceConfig)

    vnodes: int = DEFAULT_VNODES
    map_version: int = 1

    def __post_init__(self) -> None:
        if not self.shards:
            raise ServiceError("a fleet needs at least one shard")
        # ShardMap validates names (unique, non-empty).
        self.shard_map()
        if not 0 <= self.gateway_dc < self.shard.datacenters:
            raise ServiceError(
                f"gateway_dc {self.gateway_dc} is not one of the "
                f"{self.shard.datacenters} datacenters"
            )
        if self.gateway_mode not in ("fixed", "cheapest"):
            raise ServiceError(
                f"gateway_mode must be 'fixed' or 'cheapest', "
                f"got {self.gateway_mode!r}"
            )

    def shard_map(self) -> ShardMap:
        return ShardMap(
            sorted(self.shards), vnodes=self.vnodes, version=self.map_version
        )

    def shard_config(self, name: str) -> ServiceConfig:
        """The :class:`ServiceConfig` shard ``name`` runs with."""
        if name not in self.shards:
            raise ServiceError(f"unknown shard {name!r}")
        endpoint = self.shards[name]
        host, port, socket_path = (
            parse_endpoint(endpoint) if endpoint else ("127.0.0.1", 0, None)
        )
        return replace(
            self.shard,
            host=host,
            port=port,
            socket_path=socket_path,
            checkpoint_dir=(
                os.path.join(self.checkpoint_root, name)
                if self.checkpoint_root
                else None
            ),
        )


def split_deadline(deadline_slots: int) -> Tuple[int, int]:
    """Per-leg deadline budgets for a two-leg relay (ceil/floor).

    Both legs get at least one slot; for an odd budget the first leg
    gets the extra slot (it also pays the chaining wait downstream).
    """
    first = max(1, (deadline_slots + 1) // 2)
    second = max(1, deadline_slots - first)
    return first, second


@dataclass
class RelayLeg:
    """One hop of a decomposed cross-shard transfer."""

    leg_id: str
    shard: str
    source: int
    destination: int
    size_gb: float
    deadline_slots: int
    state: str = LEG_WAITING
    record: Optional[Dict[str, Any]] = None

    def submit_message(self) -> Dict[str, Any]:
        return {
            "op": "submit",
            "id": self.leg_id,
            "source": self.source,
            "destination": self.destination,
            "size_gb": self.size_gb,
            "deadline_slots": self.deadline_slots,
        }


def select_gateway(
    source: int,
    destination: int,
    size_gb: float,
    topology,
    *,
    fallback: int = 0,
) -> int:
    """The cheapest relay gateway for one source -> destination transfer.

    Scores every third datacenter ``g`` (endpoints excluded — a relay
    always hands off at a genuine intermediate hop) by the two-hop
    price of pushing ``size_gb`` through it::

        price(s,g) * size + price(g,d) * size

    Shard ledgers live with their shards, so the router prices by link
    price alone.  Deterministic: ties break to the lowest datacenter
    id.  With no eligible candidate (a two-datacenter topology) the
    configured ``fallback`` gateway is returned.
    """
    best = None
    best_score = None
    for dc in topology.datacenters:
        g = dc.id
        if g == source or g == destination:
            continue
        score = (
            topology.link(source, g).price * size_gb
            + topology.link(g, destination).price * size_gb
        )
        if best_score is None or score < best_score or (
            score == best_score and g < best
        ):
            best = g
            best_score = score
    return fallback if best is None else best


def relay_gateway(legs: List[RelayLeg], default: int) -> int:
    """The gateway a planned relay actually hops through.

    Two legs meet at the gateway; a degenerate single-leg relay (fixed
    gateway coinciding with an endpoint) hops through the configured
    ``default``.
    """
    if len(legs) == 2:
        return legs[0].destination
    return default


def plan_relay(
    fields: Dict[str, Any],
    shard_map: ShardMap,
    gateway_dc: int,
    *,
    gateway_mode: str = "fixed",
    topology=None,
) -> Optional[List[RelayLeg]]:
    """The legs a submission decomposes into, or None for a direct one.

    A transfer is direct when one shard owns both endpoints' source
    routing (i.e. the map sends source and destination to the same
    shard).  Otherwise: leg A (source -> gateway) on the *source*
    shard, leg B (gateway -> destination) on the *destination* shard —
    the gateway hands traffic off between regions, and each region
    bills the leg it carries.  When the gateway coincides with an
    endpoint the relay degenerates to a single leg on the shard that
    carries it.

    With ``gateway_mode="cheapest"`` (and a ``topology``) the gateway
    is picked per transfer by :func:`select_gateway` instead of the
    fixed ``gateway_dc``.
    """
    source = int(fields["source"])
    destination = int(fields["destination"])
    src_shard = shard_map.shard_for(source)
    dst_shard = shard_map.shard_for(destination)
    if src_shard == dst_shard:
        return None
    cid = fields["id"]
    size = float(fields["size_gb"])
    deadline = int(fields["deadline_slots"])
    if gateway_mode == "cheapest" and topology is not None:
        gateway_dc = select_gateway(
            source, destination, size, topology, fallback=gateway_dc
        )
    if gateway_dc == source:
        # The transfer already starts at the gateway: one ingress leg,
        # billed by the destination's shard.
        return [
            RelayLeg(f"{cid}{LEG_SEP}b", dst_shard, source, destination,
                     size, deadline)
        ]
    if gateway_dc == destination:
        # The transfer ends at the gateway: one egress leg on the
        # source's shard.
        return [
            RelayLeg(f"{cid}{LEG_SEP}a", src_shard, source, destination,
                     size, deadline)
        ]
    first, second = split_deadline(deadline)
    return [
        RelayLeg(f"{cid}{LEG_SEP}a", src_shard, source, gateway_dc,
                 size, first),
        RelayLeg(f"{cid}{LEG_SEP}b", dst_shard, gateway_dc, destination,
                 size, second),
    ]


class Relay:
    """One cross-shard transfer's legs and composite outcome."""

    def __init__(self, client_id: str, legs: List[RelayLeg], gateway_dc: int):
        self.client_id = client_id
        self.legs = legs
        self.gateway_dc = gateway_dc
        self.failure: Optional[Dict[str, Any]] = None
        #: Resolved once with the composed answer; every client that
        #: submits this id while it relays parks on it (shielded).
        self.reply: Optional[asyncio.Future] = None
        #: True while a driver task owns this relay (prevents a resume
        #: from double-driving).
        self.driving = False

    def next_leg(self) -> Optional[RelayLeg]:
        """The first undecided leg, or None once settled."""
        if self.failure is not None:
            return None
        for leg in self.legs:
            if leg.state != LEG_DECIDED:
                return leg
            if leg.record and leg.record.get("decision") != "admitted":
                # A rejected leg ends the relay; later legs are never
                # submitted (nothing arrives at the gateway to forward).
                return None
        return None

    def on_leg_decision(self, leg_id: str, record: Dict[str, Any]) -> None:
        for leg in self.legs:
            if leg.leg_id == leg_id:
                leg.state = LEG_DECIDED
                leg.record = dict(record)
                return
        raise ServiceError(f"relay {self.client_id!r} has no leg {leg_id!r}")

    def fail(self, leg: RelayLeg, response: Dict[str, Any]) -> None:
        self.failure = {
            "leg": leg.leg_id,
            "shard": leg.shard,
            "error": response.get("error", "failed"),
            "message": response.get("message", ""),
        }

    @property
    def settled(self) -> bool:
        return self.next_leg() is None

    def leg_states(self) -> Dict[str, str]:
        return {leg.leg_id: leg.state for leg in self.legs}

    def compose(self) -> Dict[str, Any]:
        """The fabric-level decision record for the whole relay.

        ``admitted`` only when every leg was; latency fields compose
        conservatively (waits add, the decision time is the slowest
        leg's).  ``completion_slot``/``deadline_slot`` are the final
        leg's — each shard's clock is its own, so these are
        per-shard-slot values, meaningful leg by leg.
        """
        decided = [leg for leg in self.legs if leg.record is not None]
        if self.failure is not None:
            decision = "failed"
        elif len(decided) == len(self.legs) and all(
            leg.record.get("decision") == "admitted" for leg in decided
        ):
            decision = "admitted"
        else:
            decision = "rejected"
        last = decided[-1].record if decided else {}
        legs = []
        for leg in self.legs:
            legs.append({"id": leg.leg_id, "shard": leg.shard, "source": leg.source,
                         "destination": leg.destination,
                         "deadline_slots": leg.deadline_slots, "state": leg.state})
            if leg.record:
                legs[-1].update((key, leg.record.get(key))
                                for key in ("decision", "slot", "completion_slot"))
        record: Dict[str, Any] = {
            "id": self.client_id,
            "decision": decision,
            "relay": {"gateway": self.gateway_dc, "legs": legs},
            "shards": sorted({leg.shard for leg in self.legs}),
            "slot": last.get("slot"),
            "release_slot": decided[0].record.get("release_slot") if decided else None,
            "completion_slot": last.get("completion_slot"),
            "deadline_slot": last.get("deadline_slot"),
            "wait_s": round(sum(float(leg.record.get("wait_s", 0.0)) for leg in decided), 6),
            "decision_s": round(max((float(leg.record.get("decision_s", 0.0))
                                     for leg in decided), default=0.0), 6),
            "cost_delta": round(
                sum(float(leg.record.get("cost_delta", 0.0)) for leg in decided), 9),
        }
        if self.failure is not None:
            record["failure"] = dict(self.failure)
        return record


class RelayTracker:
    """Every live (and settled) relay, indexed by transfer id."""

    def __init__(self) -> None:
        self.relays: Dict[str, Relay] = {}

    def register(self, relay: Relay) -> None:
        if relay.client_id in self.relays:
            raise ServiceError(
                f"relay {relay.client_id!r} is already registered"
            )
        self.relays[relay.client_id] = relay

    def get(self, client_id: str) -> Optional[Relay]:
        return self.relays.get(client_id)

    def active(self) -> List[Relay]:
        return [r for r in self.relays.values() if not r.settled]

    def parked_on(self, shard: str) -> List[Tuple[Relay, RelayLeg]]:
        """Parked (or stranded in-flight) legs owned by ``shard``."""
        out = []
        for relay in self.relays.values():
            if relay.settled:
                continue
            for leg in relay.legs:
                if leg.shard == shard and leg.state in (
                    LEG_PARKED, LEG_INFLIGHT
                ):
                    out.append((relay, leg))
        return out

    def parked_count(self) -> int:
        return sum(
            1
            for relay in self.relays.values()
            if not relay.settled
            for leg in relay.legs
            if leg.state == LEG_PARKED
        )


#: broker.stats() keys that add across shards.
_STAT_SUM_KEYS = (
    "submitted", "admitted", "rejected", "backpressured", "slots", "batches",
    "queue_depth", "escalations", "fast_slots", "degraded", "lp_skipped",
    "lp_widened", "checkpoints", "wal_records", "wal_bytes", "wal_syncs",
    "journal_bytes", "snapshot_bytes", "cost_per_slot", "periods_banked",
)
#: Keys where the fleet figure is the furthest shard's.
_STAT_MAX_KEYS = ("next_slot",)


def rollup_stats(per_shard: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Fleet-level totals over per-shard ``stats`` bodies."""
    fleet: Dict[str, Any] = {"shards": len(per_shard),
                             **dict.fromkeys(_STAT_SUM_KEYS + _STAT_MAX_KEYS, 0),
                             "draining": False}
    for stats in per_shard.values():
        for key in _STAT_SUM_KEYS + _STAT_MAX_KEYS:
            value = stats.get(key, 0)
            if isinstance(value, (int, float)):
                fleet[key] = (max(fleet[key], value) if key in _STAT_MAX_KEYS
                              else fleet[key] + value)
        fleet["draining"] = fleet["draining"] or bool(stats.get("draining"))
    fleet["cost_per_slot"] = round(fleet["cost_per_slot"], 6)
    return fleet


def _decision_record(answer: Dict[str, Any]) -> Dict[str, Any]:
    """A submit answer as the decision log keeps it: minus the envelope
    keys and the measured ``wait_s`` / ``decision_s``, which only the
    answer carries (a shard's own log holds none)."""
    return {
        k: v for k, v in answer.items()
        if k not in ("ok", "op", "cached", "wait_s", "decision_s")
    }


class FleetRouter(LineServer):
    """The fleet front end: one listener, N shards.

    Speaks the same NDJSON protocol as a single daemon, so existing
    clients (loadgen, watch, tests) work unchanged against a fleet.
    Routing is by shard map on the submission's source datacenter;
    cross-shard submissions become relays driven by background tasks
    the router owns — a client that hangs up stops listening, it does
    not stop its transfer.  A shard whose connection drops is marked
    *down*: direct submissions for it are answered with a
    ``shard-down`` error (and a retry-after), relay legs on it park.
    Reconnection is lazy (next use) or explicit (the ``resume`` op);
    either path resubmits parked legs, and the shard's idempotent
    decision log makes the resume exactly-once.
    """

    served_by = "the router"

    def __init__(
        self,
        fleet: FleetConfig,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
    ):
        super().__init__(host=host, port=port, socket_path=socket_path)
        self.fleet = fleet
        self.map = fleet.shard_map()
        self.tracker = RelayTracker()
        self.decisions: Dict[str, Dict[str, Any]] = {}
        #: Undecided direct client id -> owning shard (for status
        #: forwarding; the decision record carries it afterwards).
        self.routes: Dict[str, str] = {}
        self.down: Dict[str, str] = {}
        self.counts = {
            "submitted": 0, "direct": 0, "relayed": 0,
            "routed_errors": 0, "parked_legs": 0, "resumed_legs": 0,
        }
        #: shard -> a ``Connection`` to its daemon, or (empty
        #: endpoint) the in-process ``ServiceDaemon`` itself.
        self._conns: Dict[str, Any] = {}
        self._conn_locks: Dict[str, asyncio.Lock] = {}
        #: Relay drivers and direct forwards in flight.
        self._tasks: set = set()
        # Cheapest-gateway routing prices hops on a local rebuild of
        # the shared topology.
        self._topology = (
            fleet.shard.topology() if fleet.gateway_mode == "cheapest" else None
        )

    async def stop(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        for conn in list(self._conns.values()):
            await conn.close()
        self._conns.clear()
        await super().stop()

    def _spawn(self, coro) -> asyncio.Task:
        """Run ``coro`` as the router's own task: it outlives whichever
        connection asked for it."""
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- shards ------------------------------------------------------------

    async def _conn(self, shard: str):
        conn = self._conns.get(shard)
        if conn is not None and not conn.is_closed():
            return conn
        # Serialize setup per shard: a burst of concurrent submissions
        # must share one connection, not open (and leak) one each.
        lock = self._conn_locks.setdefault(shard, asyncio.Lock())
        async with lock:
            conn = self._conns.get(shard)
            if conn is not None:
                if not conn.is_closed():
                    return conn
                # The shard died with nothing in flight: the read loop
                # saw EOF with no waiters to fail, so nothing marked it
                # down.  Evict and reconnect — a still-dead shard makes
                # the reconnect raise ShardDownError below.
                self._conns.pop(shard, None)
                await conn.close()
            endpoint = self.fleet.shards[shard]
            try:
                if endpoint:
                    conn = await Connection.open(*parse_endpoint(endpoint))
                else:
                    conn = ServiceDaemon(self.fleet.shard_config(shard))
                    conn.open()
            except (ServiceError, OSError, ConnectionError) as exc:
                self.down[shard] = str(exc)
                raise ShardDownError(
                    f"shard {shard!r} is unreachable: {exc}"
                ) from exc
            self._conns[shard] = conn
            if self.down.pop(shard, None) is not None:
                self._resume_shard_legs(shard)
            return conn

    async def _shard_call(
        self, shard: str, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        conn = await self._conn(shard)
        try:
            return await conn.call(dict(message))
        except (ServiceError, OSError, ConnectionError) as exc:
            self._mark_down(shard, exc)
            raise ShardDownError(f"shard {shard!r} dropped: {exc}") from exc

    def _mark_down(self, shard: str, exc: Exception) -> None:
        self.down[shard] = str(exc)
        conn = self._conns.pop(shard, None)
        if conn is not None:
            self._spawn(conn.close())

    def _resume_shard_legs(self, shard: str) -> None:
        """Re-drive every relay with a parked/stranded leg on ``shard``.

        The resubmit is exactly-once by construction: the shard either
        still holds the leg queued (WAL-replayed admission — the
        broker *attaches* our fresh waiter), already decided it
        (cached record comes straight back), or never heard of it
        (journal lost with the crash — a fresh submission).  All three
        end in exactly one decision per leg.
        """
        for relay, leg in self.tracker.parked_on(shard):
            leg.state = LEG_WAITING
            self.counts["resumed_legs"] += 1
            if not relay.driving:
                self._spawn(self._drive_relay(relay))

    async def _gather_shards(
        self, message: Dict[str, Any]
    ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str]]:
        """One op fanned out to every shard; returns (live, down)."""
        live: Dict[str, Dict[str, Any]] = {}
        failed: Dict[str, str] = {}
        for name in self.map.shards:
            try:
                response = await self._shard_call(name, message)
            except ShardDownError as exc:
                failed[name] = str(exc)
                continue
            live[name] = {
                k: v for k, v in response.items() if k not in ("ok", "op")
            }
        return live, failed

    # -- submit ------------------------------------------------------------

    async def _op_submit(self, message) -> Answer:
        try:
            fields = protocol.validate_submit(
                message, self.fleet.shard.max_deadline
            )
        except ProtocolError as exc:
            return protocol.error_response(
                "submit", "invalid", str(exc), id=message.get("id")
            )
        cid = fields["id"]
        if LEG_SEP in cid:
            return protocol.error_response(
                "submit", "invalid",
                f"id may not contain {LEG_SEP!r} (reserved for relay "
                "leg ids)", id=cid,
            )
        known = self.decisions.get(cid)
        if known is not None:
            return {"ok": True, "op": "submit", "cached": True, **known}
        relay = self.tracker.get(cid)
        if relay is None:
            legs = plan_relay(
                fields, self.map, self.fleet.gateway_dc,
                gateway_mode=self.fleet.gateway_mode,
                topology=self._topology,
            )
            self.counts["submitted"] += 1
            if legs is None:
                shard = self.map.shard_for(fields["source"])
                self.routes[cid] = shard
                self.counts["direct"] += 1
                return asyncio.shield(
                    self._spawn(self._forward_direct(shard, fields))
                )
            relay = Relay(cid, legs, relay_gateway(legs, self.fleet.gateway_dc))
            relay.reply = asyncio.get_running_loop().create_future()
            self.tracker.register(relay)
            self.counts["relayed"] += 1
            self._spawn(self._drive_relay(relay))
        # Shielded: the asker may hang up (and a later one re-park on
        # the same relay) without disturbing the driver.
        return asyncio.shield(relay.reply)

    async def _forward_direct(self, shard, fields) -> Dict[str, Any]:
        cid = fields["id"]
        try:
            response = await self._shard_call(
                shard, {"op": "submit", **fields}
            )
        except ShardDownError as exc:
            self.counts["routed_errors"] += 1
            return protocol.error_response(
                "submit", "shard-down", str(exc),
                id=cid, shard=shard, retry_after_s=1.0,
            )
        if response.get("ok") and "decision" in response:
            self.decisions[cid] = {**_decision_record(response), "shard": shard}
            self.routes.pop(cid, None)
        return {**response, "shard": shard}

    async def _drive_relay(self, relay: Relay) -> None:
        """Submit legs in order until the relay settles or parks."""
        relay.driving = True
        retries = 0
        try:
            while True:
                leg = relay.next_leg()
                if leg is None:
                    break
                leg.state = LEG_INFLIGHT
                try:
                    response = await self._shard_call(
                        leg.shard, leg.submit_message()
                    )
                except ShardDownError:
                    leg.state = LEG_PARKED
                    self.counts["parked_legs"] += 1
                    return
                if not response.get("ok"):
                    if (
                        response.get("error") == "backpressure"
                        and retries < LEG_MAX_RETRIES
                    ):
                        retries += 1
                        leg.state = LEG_WAITING
                        await asyncio.sleep(
                            float(response.get("retry_after_s", 0.1))
                        )
                        continue
                    relay.fail(leg, response)
                    break
                relay.on_leg_decision(leg.leg_id, response)
            final = relay.compose()
            self.decisions[relay.client_id] = _decision_record(final)
            ok = final["decision"] != "failed"
            if not ok:
                self.counts["routed_errors"] += 1
            relay.reply.set_result({"ok": ok, "op": "submit", **final})
        finally:
            relay.driving = False

    # -- the other ops -----------------------------------------------------

    async def _op_status(self, message) -> Answer:
        cid = str(message.get("id", ""))
        answer = {"ok": True, "op": "status", "id": cid}
        known = self.decisions.get(cid)
        if known is not None:
            return {**answer, "state": known["decision"], "decision": known}
        relay = self.tracker.get(cid)
        if relay is not None:
            return {**answer, "state": "relaying", "legs": relay.leg_states()}
        shard = self.routes.get(cid)
        if shard is None:
            return {**answer, "state": "unknown"}
        try:
            response = await self._shard_call(
                shard, {"op": "status", "id": cid}
            )
        except ShardDownError as exc:
            return protocol.error_response(
                "status", "shard-down", str(exc), id=cid, shard=shard
            )
        return {**response, "shard": shard}

    def _router_stats(self) -> Dict[str, Any]:
        return {
            **self.counts,
            "relays_active": len(self.tracker.active()),
            "parked": self.tracker.parked_count(),
            "map_version": self.map.version,
            "down": sorted(self.down),
        }

    async def _op_stats(self, message) -> Answer:
        live, failed = await self._gather_shards({"op": "stats"})
        shards: Dict[str, Any] = dict(live)
        for name, reason in failed.items():
            shards[name] = {"down": reason}
        return {"ok": True, "op": "stats", "role": "router",
                "endpoint": self.endpoint,
                "router": self._router_stats(),
                "shard_map": self.map.to_payload(),
                "shards": shards,
                "fleet": rollup_stats(live)}

    async def _op_metrics(self, message) -> Answer:
        if message.get("format", "json") != "json":
            return protocol.error_response(
                "metrics", "unsupported",
                "the router serves json only; scrape prometheus text "
                "from each shard's own metrics op",
            )
        live, failed = await self._gather_shards({"op": "metrics"})
        rollup = rollup_snapshots(
            {name: body.get("snapshot", {}) for name, body in live.items()}
        )
        stats_live = {
            name: body.get("stats", {}) for name, body in live.items()
        }
        return {"ok": True, "op": "metrics",
                "version": protocol.PROTOCOL_VERSION, "format": "json",
                "role": "router",
                "router": self._router_stats(),
                "shards": live,
                "down": failed,
                "stats": rollup_stats(stats_live),
                "snapshot": rollup}

    async def _op_ping(self, message) -> Answer:
        return {"ok": True, "op": "ping",
                "version": protocol.PROTOCOL_VERSION, "role": "router",
                "shards": self.map.shards,
                "map_version": self.map.version}

    async def _op_tick(self, message) -> Answer:
        """Fan a manual tick out to every live shard (sorted order).

        Relay chaining rides on decision responses delivered *after*
        each shard's tick ack, so a tick's response does not imply the
        chained legs have been submitted yet — poll ``status`` (tests)
        or run automatic clocks (production).
        """
        slots: Dict[str, Any] = {}
        for name in self.map.shards:
            try:
                response = await self._shard_call(name, {"op": "tick"})
            except ShardDownError as exc:
                slots[name] = {"down": str(exc)}
                continue
            if response.get("ok"):
                slots[name] = response.get("next_slot")
            else:
                slots[name] = {"error": response.get("message")}
        # Let decision deliveries and chain tasks interleave before the
        # ack; chaining may still need further ticks to decide leg B.
        for _ in range(3):
            await asyncio.sleep(0)
        return {"ok": True, "op": "tick", "shards": slots}

    async def _op_resume(self, message) -> Answer:
        wanted = message.get("shard")
        targets = [wanted] if wanted else sorted(self.down)
        resumed, still_down = [], []
        for name in targets:
            if name not in self.fleet.shards:
                return protocol.error_response(
                    "resume", "invalid", f"unknown shard {name!r}"
                )
            try:
                await self._conn(name)
                resumed.append(name)
            except ShardDownError:
                still_down.append(name)
        return {"ok": True, "op": "resume", "resumed": resumed,
                "still_down": still_down,
                "parked": self.tracker.parked_count()}

    async def _op_drain(self, message) -> Answer:
        live, failed = await self._gather_shards({"op": "drain"})
        self._stop_soon()
        return {"ok": True, "op": "drain", "drained": not failed,
                "shards": {
                    **live,
                    **{name: {"down": reason}
                       for name, reason in failed.items()},
                },
                "fleet": rollup_stats(live)}
