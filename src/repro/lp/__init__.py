"""The LP layer: one representation, one solver.

A problem is a :class:`CompiledProblem`, the sparse standard-form arrays
HiGHS reads (each matrix a :class:`RowMatrix`, built by :func:`row_matrix`).
The Postcard LP (:mod:`repro.core.formulation`) writes them itself; every
other formulation states its columns and rows on an :class:`LPBuilder`.

The solver is HiGHS, through the binding scipy vendors, fed the compiled
arrays in one call (:class:`repro.lp.backends.highs.HighsBackend`).  The test
tree keeps the operator-algebra object model the builders replaced
(``tests/lp_model.py``) and a pure-Python dense two-phase simplex
(``tests/lp_simplex.py``) as the oracles that cross-validate the builder
and the solver.

Example
-------
>>> from repro.lp import GE, LPBuilder, solve_lp
>>> lp = LPBuilder("diet")
>>> x = lp.column("x", cost=2.0)
>>> y = lp.column("y", cost=3.0)
>>> protein = lp.row([x, y], [1.0, 2.0], GE, 4.0)
>>> iron = lp.row([x, y], [3.0, 1.0], GE, 6.0)
>>> problem = lp.compile()
>>> solution = solve_lp(problem)
>>> round(solution.objective, 6), round(float(problem.duals(solution)[iron]), 6)
(6.8, 0.2)
"""

from repro.lp.result import Solution, SolveStatus
from repro.lp.compile import (
    EQ, GE, LE, CompiledProblem, LPBuilder, RowMatrix, compile_model, row_matrix, solve_lp,
)

__all__ = [
    "LPBuilder",
    "LE",
    "GE",
    "EQ",
    "Solution",
    "SolveStatus",
    "CompiledProblem",
    "RowMatrix",
    "row_matrix",
    "compile_model",
    "solve_lp",
]
