"""Solve results: status codes and the Solution accessor."""

from __future__ import annotations

import enum
from typing import Callable, Union

import numpy as np

from repro.errors import ModelError
from repro.lp.expr import LinExpr, Variable


class SolveStatus(enum.Enum):
    """Outcome of a solver run."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class Solution:
    """A solved model's variable assignment.

    Index with a :class:`Variable` or a :class:`LinExpr` via
    :meth:`value`, or read :attr:`objective` for the optimal objective
    value (including any constant term in the objective expression).
    """

    def __init__(
        self,
        status: SolveStatus,
        x: np.ndarray,
        objective: float,
        model_id: int,
        solver: str = "",
        iterations: int = 0,
        duals: "dict | Callable[[np.ndarray], dict] | None" = None,
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
        self._model_id = model_id
        #: The solver's dual of every compiled row (``a_ub`` rows, then
        #: ``a_eq``), or None when the solver reports none; a callable
        #: is resolved by the first read.
        self._row_dual_source = row_duals
        #: Maps id(constraint) -> dual value (d objective / d rhs) for a
        #: solved :class:`~repro.lp.Model`, or None; a callable derives
        #: the map from :attr:`row_duals` on the first read.
        self._dual_source = duals

    def value(self, item: Union[Variable, LinExpr, float, int]) -> float:
        """Evaluate a variable or linear expression at the optimum."""
        if isinstance(item, (int, float)):
            return float(item)
        if isinstance(item, Variable):
            self._check_model(item._model_id)
            return float(self.x[item.index])
        if isinstance(item, LinExpr):
            if item._model_id != -1:
                self._check_model(item._model_id)
            total = item.constant
            for idx, coef in item.coeffs.items():
                total += coef * self.x[idx]
            return float(total)
        raise TypeError(f"cannot evaluate object of type {type(item).__name__}")

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

    @property
    def _duals(self) -> "dict | None":
        if callable(self._dual_source):
            self._dual_source = self._dual_source(self.row_duals)
        return self._dual_source

    @property
    def has_duals(self) -> bool:
        return self._duals is not None

    def dual(self, constraint) -> float:
        """Shadow price of a constraint: d(objective) / d(rhs).

        Needs a solved :class:`~repro.lp.Model`: a compiled problem has
        no constraints to key duals by (read :attr:`row_duals`), and a
        solver that reports none raises :class:`ModelError` here.  Sign
        convention follows the constraint as written: relaxing ``expr <=
        b`` by one unit changes a minimization objective by ``dual``
        (<= 0), and tightening ``expr >= b`` likewise.
        """
        if self._duals is None:
            if self._row_dual_source is None:
                raise ModelError(f"solver {self.solver!r} does not report dual values")
            raise ModelError(
                "a compiled problem has no constraints to key duals by; read row_duals"
            )
        try:
            return self._duals[id(constraint)]
        except KeyError:
            raise ModelError(
                "unknown constraint (was it added to this model before solving?)"
            ) from None

    def _check_model(self, model_id: int) -> None:
        if model_id != self._model_id:
            raise ModelError("this Solution belongs to a different Model")

    def __repr__(self) -> str:
        return (
            f"Solution(status={self.status.value}, objective={self.objective:.6g}, "
            f"solver={self.solver!r})"
        )
