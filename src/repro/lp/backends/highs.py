"""The HiGHS backend, the toolkit's only solver: the compiled arrays go
straight to the HiGHS binding scipy vendors (``scipy.optimize._highspy._core``,
scipy >= 1.15, loaded by its file so ``scipy.optimize``'s package init never
runs), asking what scipy's ``linprog`` (method "highs") asked minus its
input cleaning, option re-validation and per-column loop
(``tests/test_highs_native.py``).

It never raises on an infeasible or unbounded problem: it reports
the status on the :class:`Solution`, and a solver that could not answer
returns :attr:`SolveStatus.ERROR` with the reason in ``message``.
:func:`~repro.lp.compile.solve_lp` turns those into typed errors; nothing
retries (docs/ROBUSTNESS.md, "When the LP does not answer")."""

from __future__ import annotations

import importlib.util
import sys
from functools import partial
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np

from repro.errors import ModelError
from repro.lp.compile import IPM_COLUMNS, CompiledProblem, compile_model
from repro.lp.result import Solution, SolveStatus
from repro.obs import registry as obs

_BINDING = "scipy.optimize._highspy._core"


def _load_binding(folder: Path):
    """The HiGHS extension in ``folder``, run without its parent packages
    unless ``sys.modules`` holds it already (scipy's import, or ours).
    Loaded first, it is no attribute of its package: import statements
    find it (so ``linprog`` works), an attribute chain does not."""
    spec = PathFinder.find_spec(_BINDING, [str(folder)])
    if spec is None:
        raise ImportError("the HiGHS backend needs scipy >= 1.15 (scipy.optimize._highspy)")
    if _BINDING not in sys.modules:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_BINDING] = module
    return sys.modules[_BINDING]


_highs = _load_binding(
    Path(importlib.util.find_spec("scipy").origin).parent / "optimize" / "_highspy")
_MODEL, _ERROR = _highs.HighsModelStatus, _highs.HighsStatus.kError
#: linprog's status table; the rest (limits, numerical trouble) is an error.
_STATUS_MAP = {
    _MODEL.kOptimal: SolveStatus.OPTIMAL, _MODEL.kUnbounded: SolveStatus.UNBOUNDED,
    _MODEL.kInfeasible: SolveStatus.INFEASIBLE, _MODEL.kModelError: SolveStatus.INFEASIBLE,
}
#: What linprog's "highs" method sets; a caller's, in HiGHS's names, follow.
_OPTIONS = {
    "output_flag": False, "log_to_console": False, "presolve": "on",
    "simplex_strategy": int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "highs_debug_level": int(_highs.HighsDebugLevel.kHighsDebugLevelNone),
}
#: linprog's post-solve tolerance: sqrt(tol) * 10 at its tol = 1e-9.
_CHECK_TOL = np.sqrt(1e-9) * 10


class HighsBackend:
    """Solve through HiGHS's own binding, one new solver per solve."""

    name = "highs"

    def solve(self, problem: CompiledProblem, **options) -> Solution:
        # The span covers the backend's whole job — the hand-off *and*
        # optimizing — so lp.build + lp.solve account for the full
        # per-slot scheduling cost.
        with obs.span("lp.solve", backend=self.name):
            problem = compile_model(problem)
            n = problem.num_variables

            if n == 0:
                # Degenerate but legal: an empty problem is trivially optimal.
                return Solution(SolveStatus.OPTIMAL, np.zeros(0), problem.c0,
                                solver=self.name)

            # A new solver shares nothing with one a watchdog abandoned.
            # Dual simplex crawls on large degenerate time-expanded LPs
            # where IPM flies (~13x on a paper-scale maxT=8 slot).
            highs = _highs._Highs()
            if n > IPM_COLUMNS:
                options = {"solver": "ipm", **options}
            for key, value in {**_OPTIONS, **options}.items():
                if highs.setOptionValue(key, value) == _ERROR:
                    raise ModelError(f"HiGHS refused option {key}={value!r}")
            model_status, iterations = _pass_and_run(highs, problem)

            status = _STATUS_MAP.get(model_status, SolveStatus.ERROR)
            x, objective, solution, message = np.zeros(n), float("nan"), None, ""
            if status is not SolveStatus.OPTIMAL:
                message = highs.modelStatusToString(model_status)
            else:
                solution = highs.getSolution()
                x = np.array(solution.col_value)
                objective = highs.getInfo().objective_function_value
                message = _breaks(problem, x, objective, np.array(solution.row_value))
                status = SolveStatus.ERROR if message else status
                objective = (-objective if problem.maximize else objective) + problem.c0
        obs.counter("lp.highs.iterations", iterations)

        # Resolved on first read: the scheduling path never asks.
        row_duals = partial(_row_duals, solution) if status is SolveStatus.OPTIMAL else None
        return Solution(status, x, objective, solver=self.name, iterations=iterations,
                        message=message, row_duals=row_duals)


def _row_duals(solution) -> np.ndarray:
    return np.array(solution.row_dual)


def _column_bounds(problem: CompiledProblem):
    """``(lower, upper)``, a ``None`` bound (nan) read as -inf / +inf."""
    bounds = np.asarray(problem.bounds, dtype=float).reshape(-1, 2)
    return np.fmax(bounds[:, 0], -np.inf), np.fmin(bounds[:, 1], np.inf)


def _pass_and_run(highs, problem: CompiledProblem):
    """Load ``[a_ub; a_eq]`` row-wise in one call, run, and return
    ``(model status, iterations)`` — a refused load is ``kModelError``."""
    for name in ("c", "b_ub", "b_eq"):  # linprog's checks a compiled problem can fail
        if not np.isfinite(getattr(problem, name)).all():
            raise ValueError(f"{name} must not contain inf or nan")
    a_ub, a_eq = problem.a_ub, problem.a_eq
    n, m_ub = problem.num_variables, problem.num_inequalities
    if highs.passModel(
        n, problem.num_constraints, a_ub.nnz + a_eq.nnz, int(_highs.MatrixFormat.kRowwise),
        int(_highs.ObjSense.kMinimize), 0.0, problem.c, *_column_bounds(problem),
        np.concatenate((np.full(m_ub, -np.inf), problem.b_eq)),
        np.concatenate((problem.b_ub, problem.b_eq)),
        np.concatenate((a_ub.indptr, a_eq.indptr[1:] + a_ub.nnz)).astype(np.int32, copy=False),
        np.concatenate((a_ub.indices, a_eq.indices)).astype(np.int32, copy=False),
        np.concatenate((a_ub.data, a_eq.data)),
        np.zeros(n, dtype=np.int32),  # HiGHS reads n: all continuous
    ) == _ERROR:
        return _MODEL.kModelError, 0
    if highs.run() == _ERROR:
        return highs.getModelStatus(), 0
    info = highs.getInfo()
    return highs.getModelStatus(), info.simplex_iteration_count or info.ipm_iteration_count


def _breaks(problem: CompiledProblem, x, objective, row_value) -> str:
    """linprog's post-solve check: why an optimal answer is an error (x out
    of bounds, a row off by more than the tolerance, a nan), or ``""``."""
    tol, m_ub = _CHECK_TOL, problem.num_inequalities
    lower, upper = _column_bounds(problem)
    if (
        np.isnan(objective) or np.isnan(x).any() or np.isnan(row_value).any()
        or not np.all((x >= lower - tol) & (x <= upper + tol))
        or (problem.b_ub - row_value[:m_ub] < -tol).any()
        or (np.abs(problem.b_eq - row_value[m_ub:]) > tol).any()
    ):
        return f"HiGHS's answer breaks a bound or a row by more than {tol:.2E}"
    return ""
