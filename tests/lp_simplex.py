"""A pure-Python two-phase simplex: the test oracle for the HiGHS backend.

It cross-validates HiGHS in property-based tests without relying on a
single implementation.  It is a dense tableau implementation with
Bland's anti-cycling rule, so it is only intended for small problems (up
to a few hundred variables).

:func:`solve_simplex` is ``solve_lp`` with the oracle answering in
HiGHS's place, and :func:`simplex_in_place_of_highs` does the same for
every solve inside a block (a scheduler's, a ``PostcardModel.solve``), so
the oracle's answers go through the shipped status -> ``InfeasibleError``
/ ``UnboundedError`` / ``SolverError`` mapping.  :data:`SOLVERS`
parametrizes a test over both.

The compiled problem (inequalities, equalities, variable bounds) is
first rewritten into the canonical form::

    minimize  c @ y   subject to  A @ y = b,  y >= 0

by shifting finite lower bounds, reflecting variables that only have an
upper bound, splitting free variables into positive and negative parts,
and adding slack variables for every inequality row (including bound
rows for doubly-bounded variables).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.lp.backends.highs import HighsBackend
from repro.lp.compile import CompiledProblem, compile_model
from repro.lp.result import Solution, SolveStatus
from repro.obs import registry as obs
from tests.lp_model import Model, solve_lp
from tests.lp_reference import as_scipy

_TOL = 1e-9


@dataclass
class _ColumnMap:
    """How an original variable maps into canonical columns.

    ``kind`` is one of:

    * ``"shift"``  — x = lo + y[col]
    * ``"reflect"``— x = hi - y[col]
    * ``"free"``   — x = y[col] - y[col2]
    """

    kind: str
    col: int
    col2: int = -1
    offset: float = 0.0


class _Canonical:
    """Equality-form LP with nonnegative variables."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, c0: float,
                 column_map: List[_ColumnMap], num_original: int):
        self.a = a
        self.b = b
        self.c = c
        self.c0 = c0
        self.column_map = column_map
        self.num_original = num_original

    def recover(self, y: np.ndarray) -> np.ndarray:
        """Map a canonical solution back to original variable values."""
        x = np.zeros(self.num_original)
        for i, cmap in enumerate(self.column_map):
            if cmap.kind == "shift":
                x[i] = cmap.offset + y[cmap.col]
            elif cmap.kind == "reflect":
                x[i] = cmap.offset - y[cmap.col]
            else:  # free
                x[i] = y[cmap.col] - y[cmap.col2]
        return x


def _canonicalize(problem: CompiledProblem) -> _Canonical:
    """Rewrite a compiled problem into equality form with y >= 0."""
    n = problem.num_variables
    c_orig = problem.c.copy()

    column_map: List[_ColumnMap] = []
    extra_bound_rows: List[Tuple[int, float]] = []  # (canonical col, ub value)
    num_cols = 0
    c0_extra = 0.0

    # Decide the canonical representation of each variable.
    cols_c: List[float] = []
    for i, (lo, hi) in enumerate(problem.bounds):
        if lo == float("-inf") and hi == float("inf"):
            column_map.append(_ColumnMap("free", num_cols, num_cols + 1))
            cols_c.extend([c_orig[i], -c_orig[i]])
            num_cols += 2
        elif lo == float("-inf"):
            # x = hi - y, y >= 0
            column_map.append(_ColumnMap("reflect", num_cols, offset=hi))
            cols_c.append(-c_orig[i])
            c0_extra += c_orig[i] * hi
            num_cols += 1
        else:
            # x = lo + y, y >= 0 (and y <= hi - lo when hi finite)
            column_map.append(_ColumnMap("shift", num_cols, offset=lo))
            cols_c.append(c_orig[i])
            c0_extra += c_orig[i] * lo
            if hi != float("inf"):
                extra_bound_rows.append((num_cols, hi - lo))
            num_cols += 1

    a_ub = as_scipy(problem.a_ub).toarray() if problem.num_inequalities else np.zeros((0, n))
    a_eq = as_scipy(problem.a_eq).toarray() if problem.num_equalities else np.zeros((0, n))
    b_ub = problem.b_ub.copy()
    b_eq = problem.b_eq.copy()

    def transform_rows(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Substitute the canonical representation into constraint rows."""
        m = a.shape[0]
        out = np.zeros((m, num_cols))
        b_out = b.copy()
        for i, cmap in enumerate(column_map):
            col_vals = a[:, i]
            if cmap.kind == "shift":
                out[:, cmap.col] += col_vals
                b_out -= col_vals * cmap.offset
            elif cmap.kind == "reflect":
                out[:, cmap.col] -= col_vals
                b_out -= col_vals * cmap.offset
            else:
                out[:, cmap.col] += col_vals
                out[:, cmap.col2] -= col_vals
        return out, b_out

    a_ub_c, b_ub_c = transform_rows(a_ub, b_ub)
    a_eq_c, b_eq_c = transform_rows(a_eq, b_eq)

    # Bound rows y_col <= ub become inequality rows.
    if extra_bound_rows:
        rows = np.zeros((len(extra_bound_rows), num_cols))
        vals = np.zeros(len(extra_bound_rows))
        for r, (col, ub) in enumerate(extra_bound_rows):
            rows[r, col] = 1.0
            vals[r] = ub
        a_ub_c = np.vstack([a_ub_c, rows])
        b_ub_c = np.concatenate([b_ub_c, vals])

    # Slack variables turn inequalities into equalities.
    m_ub = a_ub_c.shape[0]
    m_eq = a_eq_c.shape[0]
    total_cols = num_cols + m_ub
    a = np.zeros((m_ub + m_eq, total_cols))
    b = np.zeros(m_ub + m_eq)
    if m_ub:
        a[:m_ub, :num_cols] = a_ub_c
        a[:m_ub, num_cols:] = np.eye(m_ub)
        b[:m_ub] = b_ub_c
    if m_eq:
        a[m_ub:, :num_cols] = a_eq_c
        b[m_ub:] = b_eq_c

    c = np.zeros(total_cols)
    c[:num_cols] = np.asarray(cols_c)

    return _Canonical(a, b, c, problem.c0 + c0_extra, column_map, n)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col) of the simplex tableau."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 1e-14:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _simplex_iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    num_cols: int,
    max_iter: int,
) -> Tuple[str, int]:
    """Run simplex iterations with Bland's rule on the last (cost) row.

    Returns ("optimal" | "unbounded" | "iteration_limit", iterations).
    The tableau layout is ``[A | b]`` rows followed by the reduced-cost
    row ``[c_reduced | -objective]``.
    """
    m = tableau.shape[0] - 1
    iterations = 0
    while iterations < max_iter:
        cost_row = tableau[-1, :num_cols]
        # Bland: smallest index with negative reduced cost.
        entering = -1
        for j in range(num_cols):
            if cost_row[j] < -_TOL:
                entering = j
                break
        if entering == -1:
            return "optimal", iterations

        # Ratio test (Bland tie-break on basis index).
        best_ratio = float("inf")
        leaving = -1
        for r in range(m):
            coef = tableau[r, entering]
            if coef > _TOL:
                ratio = tableau[r, -1] / coef
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (leaving == -1 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving == -1:
            return "unbounded", iterations

        _pivot(tableau, basis, leaving, entering)
        iterations += 1
    return "iteration_limit", iterations


class SimplexBackend:
    """Two-phase dense simplex (educational / verification backend)."""

    name = "simplex"

    def solve(self, problem: CompiledProblem, **options) -> Solution:
        max_iter = int(options.pop("max_iter", 20000))
        # Span covers the hand-off + optimizing (see the HiGHS backend).
        with obs.span("lp.solve", backend=self.name):
            problem = compile_model(problem)

            if problem.num_variables == 0:
                return Solution(
                    SolveStatus.OPTIMAL, np.zeros(0), problem.c0, solver=self.name,
                )

            solution = self._solve_compiled(problem, max_iter)
        obs.counter("lp.simplex.pivots", solution.iterations)
        return solution

    def _solve_compiled(self, problem: CompiledProblem, max_iter: int) -> Solution:
        canon = _canonicalize(problem)
        a, b, c = canon.a.copy(), canon.b.copy(), canon.c.copy()
        m, n = a.shape

        if m == 0:
            # No constraints: optimum sits at the (shifted) origin unless
            # some cost coefficient is negative, in which case unbounded.
            if np.any(c < -_TOL):
                return Solution(
                    SolveStatus.UNBOUNDED, np.zeros(problem.num_variables),
                    float("-inf"), solver=self.name,
                )
            x = canon.recover(np.zeros(n))
            shift_terms = canon.c0 - problem.c0
            obj = (-shift_terms if problem.maximize else shift_terms) + problem.c0
            return Solution(SolveStatus.OPTIMAL, x, obj, solver=self.name)

        # Make b nonnegative.
        for r in range(m):
            if b[r] < 0:
                a[r] *= -1
                b[r] *= -1

        # ---- Phase 1: minimize the sum of artificial variables. ----
        tableau = np.zeros((m + 1, n + m + 1))
        tableau[:m, :n] = a
        tableau[:m, n : n + m] = np.eye(m)
        tableau[:m, -1] = b
        basis = np.arange(n, n + m)
        # Phase-1 cost: sum of artificials, expressed over the basis.
        tableau[-1, n : n + m] = 1.0
        for r in range(m):
            tableau[-1] -= tableau[r]

        status, it1 = _simplex_iterate(tableau, basis, n + m, max_iter)
        if status == "iteration_limit":
            return Solution(
                SolveStatus.ERROR, np.zeros(problem.num_variables), float("nan"),
                solver=self.name, iterations=it1,
            )
        phase1_obj = -tableau[-1, -1]
        if phase1_obj > 1e-7:
            return Solution(
                SolveStatus.INFEASIBLE, np.zeros(problem.num_variables), float("nan"),
                solver=self.name, iterations=it1,
            )

        # Drive any lingering artificial variables out of the basis.
        for r in range(m):
            if basis[r] >= n:
                pivot_col = -1
                for j in range(n):
                    if abs(tableau[r, j]) > _TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, basis, r, pivot_col)
                # Otherwise the row is redundant (all-zero over real
                # columns); the artificial stays basic at value zero,
                # which is harmless.

        # ---- Phase 2: original objective over the feasible tableau. ----
        # Artificial columns cannot re-enter: _simplex_iterate is given
        # num_cols=n, so the entering rule never looks at them.
        tableau[-1, :] = 0.0
        tableau[-1, :n] = c
        for r in range(m):
            if basis[r] < n and abs(tableau[-1, basis[r]]) > 0:
                tableau[-1] -= tableau[-1, basis[r]] * tableau[r]

        status, it2 = _simplex_iterate(tableau, basis, n, max_iter)
        if status == "iteration_limit":
            return Solution(
                SolveStatus.ERROR, np.zeros(problem.num_variables), float("nan"),
                solver=self.name, iterations=it1 + it2,
            )
        if status == "unbounded":
            return Solution(
                SolveStatus.UNBOUNDED, np.zeros(problem.num_variables), float("nan"),
                solver=self.name, iterations=it1 + it2,
            )

        y = np.zeros(n + m)
        for r in range(m):
            y[basis[r]] = tableau[r, -1]
        x = canon.recover(y[:n])

        # canon.c0 = problem.c0 + (shift terms in the possibly-negated c).
        # For minimize the objective is direct; for maximize, compile
        # negated the cost vector, so the true objective is the negation
        # of the canonical value with the *original* constant restored.
        canonical_value = float(c @ y[:n])
        shift_terms = canon.c0 - problem.c0
        if problem.maximize:
            objective = -(canonical_value + shift_terms) + problem.c0
        else:
            objective = canonical_value + shift_terms + problem.c0

        return Solution(
            SolveStatus.OPTIMAL, x, objective, solver=self.name, iterations=it1 + it2,
        )


def _answer_with_simplex(_highs: HighsBackend, model, **options) -> Solution:
    return SimplexBackend().solve(model, **options)


@contextlib.contextmanager
def simplex_in_place_of_highs():
    """Every ``solve_lp`` inside the block is answered by the oracle."""
    with mock.patch.object(HighsBackend, "solve", _answer_with_simplex):
        yield


def solve_simplex(problem: "Model | CompiledProblem", **options) -> Solution:
    """``solve_lp(problem, **options)``, answered by the oracle
    (``max_iter`` caps its pivots; HiGHS's options are ignored)."""
    with simplex_in_place_of_highs():
        return solve_lp(problem, **options)


#: ``@pytest.mark.parametrize("solve", SOLVERS)``: the shipped solver and
#: the oracle, each case id naming its solver.
SOLVERS = [pytest.param(solve_lp, id="highs"), pytest.param(solve_simplex, id="simplex")]
