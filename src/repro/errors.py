"""Exception hierarchy for the Postcard reproduction.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure while still letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """An optimization model was built or used inconsistently.

    Examples: adding a constraint that references a variable from a
    different model, or asking for the value of a variable before the
    model has been solved.
    """


class SolverError(ReproError):
    """A solver backend failed to produce a usable answer."""


class InfeasibleError(SolverError):
    """The optimization problem admits no feasible point.

    For Postcard this typically means the requested transfers cannot all
    meet their deadlines under the residual link capacities.
    """

    def __init__(self, message: str = "problem is infeasible", *, detail: str = ""):
        super().__init__(message)
        self.detail = detail


class UnboundedError(SolverError):
    """The optimization problem is unbounded below (for minimization)."""


class TopologyError(ReproError):
    """An inter-datacenter topology was specified inconsistently."""


class ChargingError(ReproError):
    """A charging scheme or cost function was used incorrectly."""


class WorkloadError(ReproError):
    """A transfer request or workload generator was invalid."""


class SchedulingError(ReproError):
    """A scheduler produced or was given an inconsistent schedule."""


class SimulationError(ReproError):
    """The simulation engine detected an internal inconsistency."""


class RecoveryError(SimulationError):
    """Salvage-and-replan bookkeeping went inconsistent.

    Raised when post-disruption reconstruction of a file's remaining
    supply distribution disagrees with what the ledger recorded — a
    bug, never an expected runtime outcome (infeasible recoveries are
    recorded as SLO violations instead).
    """


class ObservabilityError(ReproError):
    """An instrumentation artifact (event file, sink) was invalid."""


class ServiceError(ReproError):
    """The transfer-broker daemon was used or configured incorrectly."""


class WalError(ServiceError):
    """The write-ahead log was used inconsistently (not corruption).

    Corruption of the log *file* is never an error: a torn or
    checksum-failed tail is expected after a crash and is silently
    truncated during recovery.  This type covers programming mistakes —
    appending to a closed log, replaying records against the wrong
    snapshot generation, an unknown record type.
    """


class RecoveryVerifyError(ServiceError):
    """A post-recovery invariant check failed.

    Raised by :func:`repro.invariants.verify_recovery` when a resumed
    broker's books break the invariant kernel (a cell above its link's
    capacity or in a dark window, a late completion, a bill off its
    ledger peaks, a double-charged id, a watermark or clock regression).
    A broker must refuse to serve from such a state — continuing would
    silently corrupt every bill downstream.
    """


class ProtocolError(ServiceError):
    """A wire message violated the service's NDJSON protocol."""


class BackpressureError(ServiceError):
    """The intake queue is saturated; the client should retry later.

    Carries ``retry_after_s``, the server's estimate of when capacity
    will free up (one virtual slot tick by default) — the value the
    daemon echoes back in its reject-with-retry-after response.
    """

    def __init__(self, message: str = "intake queue is full", *, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s
