"""Solve results: status codes and the Solution accessor."""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from repro.errors import ModelError


class SolveStatus(enum.Enum):
    """Outcome of a solver run."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class Solution:
    """A solved problem's column values :attr:`x`, its optimal
    :attr:`objective` (including the objective's constant), and the
    duals of its compiled rows (:attr:`row_duals`; per stated row,
    :meth:`repro.lp.CompiledProblem.duals`)."""

    def __init__(
        self,
        status: SolveStatus,
        x: np.ndarray,
        objective: float,
        solver: str = "",
        iterations: int = 0,
        message: str = "",
        row_duals: "np.ndarray | Callable[[], np.ndarray] | None" = None,
    ):
        self.status = status
        self.x = x
        self.objective = objective
        self.solver = solver
        self.iterations = iterations
        #: The solver's own words for a non-optimal status ("" if none).
        self.message = message
        #: The solver's dual of every compiled row (``a_ub`` rows, then
        #: ``a_eq``), or None when the solver reports none; a callable
        #: is resolved by the first read.
        self._row_dual_source = row_duals

    @property
    def row_duals(self) -> np.ndarray:
        """The solver's dual of each compiled row, ``a_ub`` rows then
        ``a_eq`` rows, in the compiled (minimizing, LE) sign.

        A solver that reports none (the tests' simplex oracle) raises
        :class:`ModelError` here.
        """
        if callable(self._row_dual_source):
            self._row_dual_source = self._row_dual_source()
        if self._row_dual_source is None:
            raise ModelError(f"solver {self.solver!r} does not report dual values")
        return self._row_dual_source

    def __repr__(self) -> str:
        return (
            f"Solution(status={self.status.value}, objective={self.objective:.6g}, "
            f"solver={self.solver!r})"
        )
