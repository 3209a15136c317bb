"""Configuration of the transfer-broker daemon.

One frozen-ish dataclass holds everything the daemon needs to be
rebuilt identically after a restart: the listening endpoint, the
topology parameters (the topology itself is a pure function of them,
which is what lets a checkpoint restore onto "the same network"), the
scheduler choice, the slot clock, and the intake / checkpoint policies.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Any, List, Optional

from repro.errors import ServiceError
from repro.net.generators import complete_topology
from repro.net.topology import Topology
from repro.units import SLOT_SECONDS

#: Seconds per virtual slot when none is configured.
DEFAULT_TICK_SECONDS = 0.25
#: The intake-depth SLO objective, as a fraction of ``max_queue``.
SLO_DEPTH_FRACTION = 0.8


def _flag(default, help=None, flag=None, metavar=None, choices=None):
    """A field ``repro serve`` takes as a flag.

    The flag is ``--<field-name-with-dashes>`` unless ``flag`` renames
    it, its type is the default's, and a ``bool`` is a switch.  This
    metadata is the only declaration: :func:`add_arguments` and
    :func:`from_args` are derived from it.
    """
    spec = {"flag": flag, "help": help, "metavar": metavar, "choices": choices}
    return field(default=default, metadata=spec)


def _scheduler_names():
    from repro.registry import scheduler_names

    return scheduler_names()


@dataclass
class ServiceConfig:
    """Everything needed to (re)build one transfer-broker daemon.

    Endpoint: set ``socket_path`` for a unix socket, or ``host``/``port``
    for TCP (``socket_path`` wins when both are given).  ``tick_seconds``
    is the virtual slot length — the daemon batches all requests that
    arrive within one tick into a single ``K(t)``; ``tick_seconds=0``
    disables the automatic clock entirely, and slots advance only on
    explicit ``tick`` protocol messages (the deterministic mode tests
    and the crash-resume harness rely on).

    ``horizon`` bounds the ledger window; submissions whose deadline
    would cross it are refused unless ``period_slots`` turns on billing
    rollover (the broker then cycles charging periods forever, banking
    each period's bill at the boundary).  ``max_queue`` bounds the
    intake queue — the
    backpressure threshold.  ``max_batch=0`` drains the whole queue into
    each slot.  ``checkpoint_dir`` is a write-ahead log of every
    admission and slot commit (no persistence when it is unset), and
    ``checkpoint_every=N`` compacts it into a snapshot of state + pending
    queue every N processed slots.
    """

    host: str = _flag("127.0.0.1")
    port: int = _flag(7411, "TCP port (0 = ephemeral)")
    socket_path: Optional[str] = _flag(
        None, "serve on a unix socket instead of TCP",
        flag="--socket", metavar="PATH",
    )

    datacenters: int = _flag(10)
    capacity: float = _flag(100.0)
    seed: int = _flag(0)

    scheduler: str = _flag("hybrid", choices=_scheduler_names)
    horizon: int = 4096
    max_deadline: int = _flag(16)

    #: A :class:`repro.net.schedule.LinkSchedule` JSON file, loaded at
    #: broker construction and re-attached after every checkpoint/WAL
    #: restore (the schedule, like the topology, is config — not state —
    #: so snapshots stay schedule-free).
    link_schedule_path: Optional[str] = _flag(
        None, "broker under the availability windows in FILE",
        flag="--link-schedule", metavar="FILE",
    )

    tick_seconds: float = _flag(
        DEFAULT_TICK_SECONDS,
        "virtual-slot tick; 0 = manual (slots advance on 'tick' "
        "messages only)",
    )
    max_queue: int = _flag(
        1024,
        "intake depth bound; beyond it submissions get backpressure + "
        "retry-after",
    )
    max_batch: int = _flag(
        0, "cap on requests per slot batch (0 = drain the whole queue)"
    )

    checkpoint_dir: Optional[str] = _flag(
        None,
        "write-ahead log every admission and slot commit here (fsync'd "
        "before the ack) and compact it into a snapshot every "
        "--checkpoint-every slots; a restart resumes from it",
        metavar="DIR",
    )
    checkpoint_every: int = _flag(5)

    #: With a positive value the broker *rolls over* instead of dying:
    #: at every multiple of ``period_slots`` the closing period's bill
    #: is banked (max-charging over its own samples, which then leave the
    #: ledger), the paid watermarks ``X_ij`` re-seed to the volume
    #: in-flight transfers already committed past the boundary, and the
    #: clock keeps running — indefinitely.  Boundaries are a pure function
    #: of the slot index, so WAL replay reproduces them exactly.
    period_slots: int = _flag(
        0,
        "roll the charging period over every N slots (billing rollover; "
        "0 = single-period mode, refuse past the horizon)",
    )
    #: Only so configs that spell ``wal=True`` still load: a checkpoint
    #: directory is always a write-ahead log, and ``False`` with one is refused.
    wal: bool = True
    #: fsync each WAL sync point / snapshot write.  Turning this off trades
    #: power-loss durability for speed (process-crash durability
    #: remains); drills and benchmarks flip it, production should not.
    wal_fsync: bool = True
    #: Recovery can fall back up to ``snapshot_retain - 1`` generations
    #: past a corrupt newest snapshot.
    snapshot_retain: int = _flag(
        3, "snapshot generations kept for checksum fallback"
    )

    #: A slowloris guard: the connection is told off, then disconnected.
    read_timeout_s: float = _flag(
        0.0,
        "disconnect a connection idle (no line, nothing in flight) for S "
        "seconds (0 = never)",
        flag="--read-timeout", metavar="S",
    )

    watchdog_timeout_s: float = _flag(
        0.0,
        "degrade a slot to fast-lane-only when an LP escalation exceeds "
        "S seconds (0 = off; hybrid scheduler only)",
        flag="--watchdog-timeout", metavar="S",
    )

    #: Like the link schedule, the provider is config-not-state: it is
    #: rebuilt at broker construction and retrains deterministically
    #: from WAL replay, so snapshots stay forecast-free.
    forecast: bool = _flag(
        False,
        "attach an online traffic forecaster (hybrid scheduler only); "
        "accuracy rides the `metrics` op and `repro watch`",
    )
    forecast_period: int = _flag(
        24, "seasonal period the forecaster learns (default 24)",
        metavar="SLOTS",
    )
    forecast_horizon: int = _flag(
        0, "reservation horizon (default: one period)", metavar="SLOTS"
    )

    #: Attach the live telemetry plane (MetricsSnapshot sink + SLO
    #: gauges + the ``metrics`` protocol op's data source).  Off, the
    #: daemon emits nothing unless an external sink is attached.
    telemetry: bool = True

    #: Unix timestamp slot 0 maps to.  0.0 = stamp ``time.time()`` at
    #: first start; the broker persists the stamp in its checkpoints so
    #: a resumed daemon keeps the original alignment.
    wall_epoch: float = 0.0

    def __post_init__(self) -> None:
        if self.datacenters < 2:
            raise ServiceError("service needs at least 2 datacenters")
        if self.capacity <= 0:
            raise ServiceError("capacity must be positive")
        if self.horizon < 2:
            raise ServiceError("horizon must be >= 2 slots")
        if not 1 <= self.max_deadline < self.horizon:
            raise ServiceError(
                f"need 1 <= max_deadline < horizon, got {self.max_deadline}"
            )
        if self.tick_seconds < 0:
            raise ServiceError("tick_seconds must be non-negative")
        if self.max_queue < 1:
            raise ServiceError("max_queue must be >= 1")
        if self.max_batch < 0:
            raise ServiceError("max_batch must be non-negative")
        if self.checkpoint_every < 1:
            raise ServiceError("checkpoint_every must be >= 1")
        if self.period_slots < 0:
            raise ServiceError("period_slots must be non-negative")
        if self.period_slots and self.period_slots <= self.max_deadline:
            # A transfer may straddle at most one boundary; a period
            # shorter than the deadline cap would let one submission
            # span whole periods it was never billed in.
            raise ServiceError(
                f"period_slots ({self.period_slots}) must exceed "
                f"max_deadline ({self.max_deadline})"
            )
        if not self.wal and self.checkpoint_dir:
            raise ServiceError("wal=False was removed with snapshot-only "
                               "persistence: a checkpoint directory is always a WAL")
        if self.snapshot_retain < 1:
            raise ServiceError("snapshot_retain must be >= 1")
        if self.read_timeout_s < 0:
            raise ServiceError("read_timeout_s must be non-negative")
        if self.watchdog_timeout_s < 0:
            raise ServiceError("watchdog_timeout_s must be non-negative")
        if self.watchdog_timeout_s > 0 and self.scheduler != "hybrid":
            raise ServiceError(
                "the solver watchdog guards the hybrid scheduler's LP "
                f"escalation; scheduler {self.scheduler!r} has none"
            )
        if self.forecast and self.scheduler != "hybrid":
            raise ServiceError(
                "forecast=True: the broker wires forecasting for the hybrid "
                f"scheduler only, not {self.scheduler!r}"
            )
        if self.forecast_period < 2:
            raise ServiceError("forecast_period must be >= 2")
        if self.forecast_horizon < 0:
            raise ServiceError("forecast_horizon must be non-negative")
        if self.wall_epoch < 0:
            raise ServiceError("wall_epoch must be non-negative")

    def decision_budget_s(self) -> float:
        """The p99 decision-latency SLO budget: the tick (a decision
        slower than the tick means the slot clock is falling behind), or
        :data:`DEFAULT_TICK_SECONDS` when the clock is manual."""
        return self.tick_seconds or DEFAULT_TICK_SECONDS

    def slo_thresholds(self):
        """The :class:`~repro.obs.slo.SloThresholds` this config implies:
        the tick's decision budget, a depth bound of :data:`SLO_DEPTH_FRACTION`
        of ``max_queue``, and the constant defaults for the rest."""
        from repro.obs.slo import SloThresholds

        return SloThresholds(
            decision_budget_s=self.decision_budget_s(),
            max_intake_depth=max(1, int(SLO_DEPTH_FRACTION * self.max_queue)),
        )

    def wall_time(self, slot: float, epoch: float) -> float:
        """Unix timestamp the start of virtual ``slot`` maps to: one
        slot stands for :data:`~repro.units.SLOT_SECONDS` of wall time,
        the ISP charging interval, however fast ``tick_seconds`` runs
        the clock (a 0.25 s tick replaying a day of 5-minute intervals
        still exports samples an invoice can be matched against)."""
        return epoch + slot * SLOT_SECONDS

    def topology(self) -> Topology:
        """The (deterministic) network this daemon brokers transfers on."""
        return complete_topology(
            self.datacenters, capacity=self.capacity, seed=self.seed
        )

    def link_schedule(self):
        """The loaded :class:`~repro.net.schedule.LinkSchedule`, or None."""
        if not self.link_schedule_path:
            return None
        from repro.net.schedule import LinkSchedule

        try:
            return LinkSchedule.from_file(self.link_schedule_path)
        except Exception as exc:
            raise ServiceError(
                f"cannot load link schedule {self.link_schedule_path}: {exc}"
            ) from exc

    @property
    def endpoint(self) -> str:
        """Human-readable listening endpoint."""
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"


def _flagged() -> List[Field]:
    """The flag-carrying fields."""
    return [f for f in fields(ServiceConfig) if "flag" in f.metadata]


def _flag_name(f: Field) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def add_arguments(parser) -> None:
    """Declare the config's flags on ``parser``."""
    for f in _flagged():
        choices = f.metadata["choices"]
        kind = dict(action="store_true") if f.default is False else dict(
            type=None if f.default is None else type(f.default),
            default=f.default,
            metavar=f.metadata["metavar"],
            choices=choices() if choices else None,
        )
        parser.add_argument(
            _flag_name(f), dest=f.name, help=f.metadata["help"], **kind
        )


def from_args(namespace, **overrides: Any) -> ServiceConfig:
    """The config a namespace parsed by :func:`add_arguments` spells."""
    values = {f.name: getattr(namespace, f.name) for f in _flagged()}
    return ServiceConfig(**{**values, **overrides})
