"""repro.service: the async transfer-broker daemon.

A long-running front end over the scheduling stack: clients submit
transfer requests over a newline-delimited-JSON socket protocol, the
daemon batches arrivals per virtual slot into ``K(t)``, drives the
hybrid scheduler over one shared ledger, applies backpressure when the
intake queue saturates, and checkpoints so a killed process resumes
mid-charging-period.  ``period_slots`` lets a long-running daemon roll
its charging period over instead of dying at the horizon.  One
:class:`TransferBroker` behind one :class:`ServiceDaemon` schedules the
whole network, so every link-slot's capacity and the bill are booked
once.  See docs/SERVICE.md.
"""

from repro.service.chaos import ChaosMonkey, InjectedCrash
from repro.service.config import ServiceConfig
from repro.service.intake import IntakeQueue, PendingTransfer
from repro.service.loadgen import Connection, LoadGenResult, percentile, run_loadgen
from repro.service.server import ServiceDaemon
from repro.service.slotloop import TransferBroker
from repro.service.store import SnapshotStore
from repro.service.wal import WalScan, WriteAheadLog, scan_wal
from repro.service.watch import render_dashboard, run_watch

__all__ = [
    "ChaosMonkey",
    "Connection",
    "InjectedCrash",
    "IntakeQueue",
    "LoadGenResult",
    "PendingTransfer",
    "ServiceConfig",
    "ServiceDaemon",
    "SnapshotStore",
    "TransferBroker",
    "WalScan",
    "WriteAheadLog",
    "percentile",
    "render_dashboard",
    "run_loadgen",
    "run_watch",
    "scan_wal",
]
