"""Fault injection for the broker's durability machinery.

The WAL, the snapshot store, and the slot loop expose *crash points* —
named boundaries a real crash could land on (before a write, between
write and fsync, before and after a rename, after the commit record but
before the ack).  :class:`ChaosMonkey` arms actions at those points:

``raise``
    Throw :class:`InjectedCrash` (a ``BaseException``, so no library
    ``except ReproError`` handler can accidentally swallow it).  The
    in-process crash tests use this: the broker object is discarded
    exactly as a dead process's memory would be, and recovery rebuilds
    from disk alone.
``kill``
    ``os._exit(137)`` — a genuine no-cleanup process death, for
    subprocess drills (armed via the ``REPRO_CHAOS`` environment
    variable, e.g. ``REPRO_CHAOS=kill:wal.pre_fsync:3``).
``hang``
    Sleep ``param`` seconds at the point — the injected stall the
    solver watchdog must degrade around.
``enospc``
    Raise ``OSError(ENOSPC)`` — disk full (at ``wal.pre_write``: the
    append is refused before a byte lands).

A *torn* write needs no action of its own: it only exists because the
machine died mid-call, and a test makes one by cutting the log into its
first unsynced frame.

Crash-point names currently wired::

    wal.pre_write                                       (wal.append)
    wal.pre_fsync | wal.post_fsync                      (wal.sync)
    journal.pre_write | .pre_fsync | .post_fsync        (decision journal)
    checkpoint.pre_write | checkpoint.pre_fsync
    checkpoint.pre_rename | checkpoint.post_rename      (atomic_write)
    commit.pre_ack                                      (slot loop)
    lp.escalate                                         (hybrid watchdog)
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ServiceError
from repro.obs import registry as obs


class InjectedCrash(BaseException):
    """An armed ``raise`` crash point fired.

    Deliberately **not** a :class:`~repro.errors.ReproError` — the
    point of an injected crash is that *nothing* on the failure path
    handles it, exactly like SIGKILL.  Only the drill harness, which
    knows it armed the chaos, may catch it.
    """

    def __init__(self, point: str):
        super().__init__(f"injected crash at {point}")
        self.point = point


#: Actions a crash point accepts.
_ACTIONS = ("raise", "kill", "hang", "enospc")


@dataclass
class _Arm:
    """One armed injection: fire ``action`` on the ``at``-th hit."""

    point: str
    action: str
    at: int = 1
    param: float = 0.0
    hits: int = 0


class ChaosMonkey:
    """Holds the armed script and serves the hook calls.

    A process-global instance (:data:`MONKEY`) backs the module-level
    :func:`crashpoint` function the durability layer calls; everything
    is a near-free no-op while nothing is armed.
    """

    def __init__(self) -> None:
        self._arms: Dict[str, _Arm] = {}

    def arm(
        self, point: str, action: str = "raise", at: int = 1, param: float = 0.0
    ) -> None:
        """Arm ``action`` at ``point``, firing on the ``at``-th hit."""
        if action not in _ACTIONS:
            known = ", ".join(_ACTIONS)
            raise ServiceError(f"unknown chaos action {action!r}; one of: {known}")
        if at < 1:
            raise ServiceError(f"chaos 'at' must be >= 1, got {at}")
        self._arms[point] = _Arm(point=point, action=action, at=at, param=param)

    def disarm(self, point: Optional[str] = None) -> None:
        """Drop one armed point, or the whole script when ``None``."""
        if point is None:
            self._arms.clear()
        else:
            self._arms.pop(point, None)

    def crashpoint(self, point: str) -> None:
        """Called at a crash boundary; fires the armed action, if due."""
        arm = self._arms.get(point)
        if arm is None:
            return
        arm.hits += 1
        if arm.hits != arm.at:
            return
        obs.counter("service.chaos.fired", point=point, action=arm.action)
        if arm.action == "hang":
            time.sleep(arm.param)
            return
        if arm.action == "kill":
            os._exit(137)
        if arm.action == "enospc":
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        raise InjectedCrash(point)

    def configure_from_env(self, env_var: str = "REPRO_CHAOS") -> int:
        """Arm from ``REPRO_CHAOS=action:point[:at[:param]],...``.

        The subprocess-drill channel: a daemon started with e.g.
        ``REPRO_CHAOS=kill:checkpoint.pre_rename:2`` dies, for real, on
        its second compaction rename.  Returns the number of arms set.
        """
        script = os.environ.get(env_var, "")
        count = 0
        for clause in filter(None, (c.strip() for c in script.split(","))):
            parts = clause.split(":")
            if len(parts) < 2:
                raise ServiceError(
                    f"bad {env_var} clause {clause!r}; "
                    "want action:point[:at[:param]]"
                )
            action, point = parts[0], parts[1]
            at = int(parts[2]) if len(parts) > 2 else 1
            param = float(parts[3]) if len(parts) > 3 else 0.0
            self.arm(point, action=action, at=at, param=param)
            count += 1
        return count


#: The process-global monkey the service's hook calls go through.
MONKEY = ChaosMonkey()


def crashpoint(point: str) -> None:
    """Module-level tap: :meth:`ChaosMonkey.crashpoint` on :data:`MONKEY`."""
    MONKEY.crashpoint(point)


def reset() -> None:
    """Disarm everything (test/drill teardown)."""
    MONKEY.disarm()

