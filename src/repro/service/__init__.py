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

from repro import _lazy_exports

_EXPORTS = {
    "ChaosMonkey": "repro.service.chaos",
    "InjectedCrash": "repro.service.chaos",
    "ServiceConfig": "repro.service.config",
    "IntakeQueue": "repro.service.intake",
    "PendingTransfer": "repro.service.intake",
    "Connection": "repro.service.loadgen",
    "LoadGenResult": "repro.service.loadgen",
    "percentile": "repro.obs.slo",
    "run_loadgen": "repro.service.loadgen",
    "ServiceDaemon": "repro.service.server",
    "TransferBroker": "repro.service.slotloop",
    "SnapshotStore": "repro.service.store",
    "WalScan": "repro.service.wal",
    "WriteAheadLog": "repro.service.wal",
    "scan_wal": "repro.service.wal",
    "render_dashboard": "repro.service.watch",
    "run_watch": "repro.service.watch",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
