"""The Model: a container for variables, constraints and the objective."""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Union

from repro.errors import InfeasibleError, ModelError, SolverError, UnboundedError
from repro.lp.constraint import Constraint, Sense
from repro.lp.expr import ExprLike, LinExpr, Variable
from repro.lp.result import Solution, SolveStatus

_model_counter = itertools.count()


class Model:
    """A linear program under construction.

    Build a model by adding variables and constraints, set the objective
    with :meth:`minimize` or :meth:`maximize`, then call :meth:`solve`.

    The :meth:`add_max_epigraph` helper implements the standard epigraph
    transform used by the Postcard objective: it introduces an auxiliary
    variable ``z`` with ``z >= e`` for every expression ``e``, so that
    minimizing a positively-weighted sum of such ``z`` values minimizes
    the pointwise maximum.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._id = next(_model_counter)
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr({}, 0.0, self._id)
        self.sense_minimize: bool = True

    # -- construction ---------------------------------------------------

    def add_variable(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: Optional[float] = None,
    ) -> Variable:
        """Create a new decision variable with bounds ``[lb, ub]``.

        ``ub=None`` means unbounded above; ``lb=None`` means unbounded
        below.  Defaults to the LP-friendly ``x >= 0``.
        """
        index = len(self.variables)
        lo = float("-inf") if lb is None else float(lb)
        hi = float("inf") if ub is None else float(ub)
        if lo > hi:
            raise ModelError(f"variable {name or index} has empty domain [{lo}, {hi}]")
        var = Variable(name or f"x{index}", index, lo, hi, self._id)
        self.variables.append(var)
        return var

    def add_variables(
        self, count: int, prefix: str = "x", lb: float = 0.0, ub: Optional[float] = None
    ) -> List[Variable]:
        """Create ``count`` variables named ``{prefix}[0..count)``."""
        return [self.add_variable(f"{prefix}[{i}]", lb=lb, ub=ub) for i in range(count)]

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a comparison of expressions, "
                f"got {type(constraint).__name__}"
            )
        if constraint.expr._model_id not in (-1, self._id):
            raise ModelError("constraint references variables from a different model")
        if constraint.expr.is_constant():
            # A constant constraint is either trivially true (drop it) or
            # a modeling bug (raise early rather than let the solver
            # report a confusing infeasibility).
            value, sense = constraint.expr.constant, constraint.sense
            ok = (
                (sense is Sense.LE and value <= 1e-12)
                or (sense is Sense.GE and value >= -1e-12)
                or (sense is Sense.EQ and abs(value) <= 1e-12)
            )
            if not ok:
                raise ModelError(
                    f"constraint {name or constraint.name!r} is constant and false: "
                    f"{value:g} {sense.value} 0"
                )
            return constraint
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint], prefix: str = "") -> None:
        """Register many constraints, optionally naming them by index."""
        for i, con in enumerate(constraints):
            self.add_constraint(con, name=f"{prefix}[{i}]" if prefix else "")

    def add_max_epigraph(
        self, exprs: Sequence[ExprLike], name: str = "zmax", lb: Optional[float] = None
    ) -> Variable:
        """Return a variable ``z`` constrained to ``z >= e`` for each expr.

        When ``z`` appears with positive weight in a minimization
        objective, at the optimum ``z`` equals ``max(exprs)`` (or ``lb``
        if that is larger), which is exactly the charged-volume semantics
        of the 100-th percentile scheme.
        """
        if not exprs:
            raise ModelError("add_max_epigraph needs at least one expression")
        z = self.add_variable(name, lb=None)
        for i, expr in enumerate(exprs):
            self.add_constraint(z >= expr, name=f"{name}_ge[{i}]")
        if lb is not None:
            self.add_constraint(z >= lb, name=f"{name}_lb")
        return z

    # -- objective --------------------------------------------------------

    def minimize(self, expr: ExprLike) -> None:
        """Set a minimization objective."""
        self._set_objective(expr, minimize=True)

    def maximize(self, expr: ExprLike) -> None:
        """Set a maximization objective."""
        self._set_objective(expr, minimize=False)

    def _set_objective(self, expr: ExprLike, minimize: bool) -> None:
        if isinstance(expr, Variable):
            expr = expr.as_expr()
        elif isinstance(expr, (int, float)):
            expr = LinExpr({}, float(expr), self._id)
        if not isinstance(expr, LinExpr):
            raise ModelError(f"objective must be linear, got {type(expr).__name__}")
        if expr._model_id not in (-1, self._id):
            raise ModelError("objective references variables from a different model")
        self.objective = expr
        self.sense_minimize = minimize

    # -- solving ------------------------------------------------------------

    def solve(self, **options) -> Solution:
        """Solve and return a :class:`Solution` (see :func:`solve_lp`)."""
        return solve_lp(self, **options)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"cons={self.num_constraints})"
        )


def solve_lp(problem, **options) -> Solution:
    """Solve a :class:`Model` or an already compiled problem with HiGHS
    (``options`` are HiGHS's own, see :mod:`repro.lp.backends.highs`).

    Raises :class:`InfeasibleError` / :class:`UnboundedError` /
    :class:`SolverError` on failure, so callers can rely on the
    returned solution being optimal.
    """
    from repro.lp.backends.highs import HighsBackend  # it imports this module

    solution = HighsBackend().solve(problem, **options)
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(f"model {problem.name!r} is infeasible")
    if solution.status is SolveStatus.UNBOUNDED:
        raise UnboundedError(f"model {problem.name!r} is unbounded")
    if solution.status is not SolveStatus.OPTIMAL:
        reason = f": {solution.message}" if solution.message else ""
        raise SolverError(
            f"solver {solution.solver!r} failed on model {problem.name!r}{reason}"
        )
    return solution
