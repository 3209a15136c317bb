"""repro.service: the async transfer-broker daemon and its fleet.

A long-running front end over the scheduling stack: clients submit
transfer requests over a newline-delimited-JSON socket protocol, the
daemon batches arrivals per virtual slot into ``K(t)``, drives the
hybrid scheduler over one shared ledger, applies backpressure when the
intake queue saturates, and checkpoints so a killed process resumes
mid-charging-period.  PR 8 adds the sharded fabric: a consistent-hash
:class:`ShardMap` routes submissions to per-region brokers behind one
:class:`FleetRouter` front end, cross-shard transfers relay through a
gateway datacenter, and ``period_slots`` lets a long-running shard roll
its charging period over instead of dying at the horizon.  See
docs/SERVICE.md.
"""

from repro.service.chaos import ChaosMonkey, InjectedCrash
from repro.service.config import ServiceConfig
from repro.service.fabric import (
    FleetConfig,
    FleetRouter,
    Relay,
    RelayLeg,
    RelayTracker,
    ShardDownError,
    plan_relay,
    relay_gateway,
    rollup_stats,
    select_gateway,
    split_deadline,
)
from repro.service.intake import IntakeQueue, PendingTransfer
from repro.service.loadgen import (
    Connection,
    LoadGenResult,
    parse_endpoint,
    percentile,
    run_fleet_loadgen,
    run_loadgen,
)
from repro.service.router import ShardMap
from repro.service.server import ServiceDaemon
from repro.service.slotloop import TransferBroker
from repro.service.store import SnapshotStore
from repro.service.wal import WalScan, WriteAheadLog, scan_wal
from repro.service.watch import (
    render_dashboard,
    render_fleet_dashboard,
    run_watch,
)

__all__ = [
    "ChaosMonkey",
    "Connection",
    "FleetConfig",
    "FleetRouter",
    "InjectedCrash",
    "IntakeQueue",
    "LoadGenResult",
    "PendingTransfer",
    "Relay",
    "RelayLeg",
    "RelayTracker",
    "ServiceConfig",
    "ServiceDaemon",
    "ShardDownError",
    "ShardMap",
    "SnapshotStore",
    "TransferBroker",
    "WalScan",
    "WriteAheadLog",
    "parse_endpoint",
    "percentile",
    "plan_relay",
    "relay_gateway",
    "render_dashboard",
    "select_gateway",
    "render_fleet_dashboard",
    "rollup_stats",
    "run_fleet_loadgen",
    "run_loadgen",
    "run_watch",
    "scan_wal",
    "split_deadline",
]
