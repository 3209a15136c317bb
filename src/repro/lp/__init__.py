"""A small linear-programming modeling toolkit.

The environment of this reproduction ships no algebraic modeling layer
(no PuLP, no cvxpy), so this package provides one: variables, linear
expressions, constraints, and an epigraph helper for ``max`` terms, all
compiled to a sparse standard form and handed to the solver.

The solver is HiGHS, through the binding scipy vendors, fed the compiled
arrays in one call (:class:`repro.lp.backends.HighsBackend`).  The test
tree keeps a pure-Python dense two-phase simplex (``tests/lp_simplex.py``)
as the oracle that cross-validates it on small instances.

Example
-------
>>> from repro.lp import Model
>>> m = Model("diet")
>>> x = m.add_variable("x", lb=0.0)
>>> y = m.add_variable("y", lb=0.0)
>>> m.add_constraint(x + 2 * y >= 4, name="protein")
>>> m.add_constraint(3 * x + y >= 6, name="iron")
>>> m.minimize(2 * x + 3 * y)
>>> sol = m.solve()
>>> round(sol.objective, 6)
6.8
"""

from repro.lp.expr import LinExpr, Variable
from repro.lp.constraint import Constraint, Sense
from repro.lp.model import Model, solve_lp
from repro.lp.result import Solution, SolveStatus
from repro.lp.compile import CompiledProblem, compile_model

__all__ = [
    "LinExpr",
    "Variable",
    "Constraint",
    "Sense",
    "Model",
    "Solution",
    "SolveStatus",
    "CompiledProblem",
    "compile_model",
    "solve_lp",
]
