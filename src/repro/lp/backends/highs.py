"""HiGHS backend via :func:`scipy.optimize.linprog` (the default)."""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.optimize import linprog

from repro.lp.backends.base import Backend
from repro.lp.compile import CompiledProblem, compile_model
from repro.lp.model import Model
from repro.lp.result import Solution, SolveStatus
from repro.obs import registry as obs

# scipy's linprog status codes.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ERROR,  # iteration or time limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,  # numerical difficulties
}


class HighsBackend(Backend):
    """Solve through scipy's HiGHS interface.

    Handles problems with hundreds of thousands of variables; this is
    the backend used for all paper-scale experiments.
    """

    name = "highs"

    def solve(self, model: "Model | CompiledProblem", **options) -> Solution:
        # The span covers the backend's whole job — lowering the model
        # to matrices *and* optimizing — so lp.build + lp.solve account
        # for the full per-slot scheduling cost.
        with obs.span("lp.solve", backend=self.name) as sp:
            problem = compile_model(model)
            n = problem.num_variables

            if n == 0:
                # Degenerate but legal: an empty model is trivially optimal.
                return Solution(
                    SolveStatus.OPTIMAL,
                    np.zeros(0),
                    problem.c0,
                    problem.model_id,
                    solver=self.name,
                )

            # Method auto-selection: HiGHS's default (dual simplex)
            # crawls on large degenerate time-expanded instances where
            # its interior-point code flies (~13x on a paper-scale
            # maxT=8 slot), so big problems default to IPM unless
            # overridden.
            method = options.pop("method", None)
            if method is None:
                method = "highs-ipm" if n > 20000 else "highs"
            attrs = getattr(sp, "attrs", None)
            if attrs is not None:
                attrs["method"] = method

            result = linprog(
                problem.c,
                A_ub=problem.a_ub if problem.num_inequalities else None,
                b_ub=problem.b_ub if problem.num_inequalities else None,
                A_eq=problem.a_eq if problem.num_equalities else None,
                b_eq=problem.b_eq if problem.num_equalities else None,
                bounds=problem.bounds,
                method=method,
                options=options or None,
            )

        status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
        x = np.asarray(result.x, dtype=float) if result.x is not None else np.zeros(n)
        objective = float(result.fun) + problem.c0 if result.fun is not None else float("nan")
        if problem.maximize and status is SolveStatus.OPTIMAL:
            objective = -float(result.fun) + problem.c0
        iterations = int(getattr(result, "nit", 0) or 0)
        obs.counter("lp.highs.iterations", iterations)

        duals = None
        if status is SolveStatus.OPTIMAL and isinstance(model, Model):
            # Resolved on first read: the scheduling path never asks, and
            # the row walk costs more than a compile.  (Binds the
            # constraint list, not the model: no reference cycle.)  A
            # problem handed over compiled has no constraints to key by.
            duals = partial(self._extract_duals, model.constraints, problem, result)

        return Solution(
            status, x, objective, problem.model_id,
            solver=self.name, iterations=iterations, duals=duals,
            message="" if status is SolveStatus.OPTIMAL else str(result.message),
        )

    @staticmethod
    def _extract_duals(constraints, problem, result):
        """Map HiGHS marginals back to model-level shadow prices.

        GE constraints were negated into LE rows at compile time, so
        their model-level dual flips sign; for a maximization the
        compiled costs were negated, flipping every dual.
        """
        ineq = getattr(result, "ineqlin", None)
        eq = getattr(result, "eqlin", None)
        if problem.row_map and (
            (problem.num_inequalities and ineq is None)
            or (problem.num_equalities and eq is None)
        ):
            return None  # solver variant without marginals
        duals = {}
        sign_global = -1.0 if problem.maximize else 1.0
        for constraint, (kind, row, sign) in zip(constraints, problem.row_map):
            marginal = (
                float(ineq.marginals[row]) if kind == "ub" else float(eq.marginals[row])
            )
            duals[id(constraint)] = sign_global * sign * marginal
        return duals
