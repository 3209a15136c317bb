"""A solver wrapper that retries transient failures and falls back
across backends.

Production schedulers cannot afford to abort a whole run because one
LP solve hiccuped (a numerical blow-up, a flaky native library, an
``ERROR`` status).  :class:`ResilientBackend` wraps an ordered chain of
real backends: each is retried with bounded exponential backoff, and
when a backend is exhausted the chain falls through to the next —
``highs`` → ``simplex`` → ``interior_point`` by default.

Genuine *answers* are never second-guessed: an ``OPTIMAL``,
``INFEASIBLE`` or ``UNBOUNDED`` solution returns immediately (the model
layer turns the latter two into typed exceptions); only raised
:class:`SolverError`\\ s and failure statuses count as transient.

Degradation is observable through :mod:`repro.obs` counters —
``solver.retries`` and ``solver.fallbacks`` — so a run that silently
limped along on the fallback simplex shows up in any ``--profile`` or
``--obs-jsonl`` report.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.errors import InfeasibleError, SolverError, UnboundedError
from repro.lp.backends.base import Backend
from repro.lp.model import Model
from repro.lp.result import Solution, SolveStatus
from repro.obs import registry as obs

#: Statuses that are real answers — return them, never retry.
_CONCLUSIVE = (
    SolveStatus.OPTIMAL,
    SolveStatus.INFEASIBLE,
    SolveStatus.UNBOUNDED,
)

DEFAULT_CHAIN = ("highs", "simplex", "interior_point")


class ResilientBackend(Backend):
    """Retry-with-backoff over an ordered chain of solver backends.

    Parameters
    ----------
    chain:
        Backend names tried in order (default
        ``("highs", "simplex", "interior_point")``).
    max_attempts:
        Solve attempts per backend before falling through (>= 1).
    backoff_base / backoff_max:
        Sleep ``min(backoff_max, backoff_base * 2**attempt)`` seconds
        between retries of the same backend.  Fallback to the *next*
        backend is immediate — it is a different code path, not the
        same transient fault.
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    factory:
        Backend resolver, ``name -> Backend`` (defaults to
        :func:`repro.lp.backends.get_backend`); lets tests splice in
        deliberately flaky solvers.
    """

    name = "resilient"

    def __init__(
        self,
        chain: Sequence[str] = DEFAULT_CHAIN,
        max_attempts: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        factory: Optional[Callable[[str], Backend]] = None,
    ):
        if not chain:
            raise SolverError("resilient backend needs a non-empty chain")
        if max_attempts < 1:
            raise SolverError(f"max_attempts must be >= 1, got {max_attempts}")
        self.chain = tuple(chain)
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._sleep = sleep
        self._factory = factory
        #: Lifetime tallies, mirrored to obs counters as they happen.
        self.retries = 0
        self.fallbacks = 0

    def _resolve(self, name: str) -> Backend:
        if self._factory is not None:
            return self._factory(name)
        from repro.lp.backends import get_backend

        return get_backend(name)

    def solve(self, model: Model, **options) -> Solution:
        last_error: Optional[Exception] = None
        for position, backend_name in enumerate(self.chain):
            if position > 0:
                self.fallbacks += 1
                obs.counter("solver.fallbacks", **{"to": backend_name})
            solver = self._resolve(backend_name)
            for attempt in range(self.max_attempts):
                if attempt > 0:
                    self.retries += 1
                    obs.counter("solver.retries", backend=backend_name)
                    self._sleep(
                        min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))
                    )
                try:
                    solution = solver.solve(model, **options)
                except (InfeasibleError, UnboundedError):
                    # A conclusive answer leaked out as an exception:
                    # propagate, retrying cannot change mathematics.
                    raise
                except SolverError as exc:
                    last_error = exc
                    continue
                if solution.status in _CONCLUSIVE:
                    return solution
                last_error = SolverError(
                    f"backend {backend_name!r} returned status "
                    f"{solution.status.value!r} on model {model.name!r}"
                )
        raise SolverError(
            f"all backends in chain {self.chain} failed on model "
            f"{model.name!r} after {self.max_attempts} attempt(s) each"
        ) from last_error
