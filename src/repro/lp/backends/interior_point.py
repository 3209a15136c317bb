"""A primal-dual interior-point LP solver.

Sec. V of the paper notes the Postcard problem "can be solved with
classic algorithms such as subgradient projection methods and
interior-point methods"; this backend implements the latter from
scratch — a standard primal-dual path-following method with a Mehrotra
predictor-corrector step — so the reproduction demonstrates the exact
solver family the authors had in mind, cross-validated against both
HiGHS and the simplex backend.

Like the simplex backend it is dense and intended for small-to-medium
problems.  The problem is first lowered to the canonical equality form
``min c'y  s.t.  A y = b, y >= 0`` (reusing the simplex backend's
canonicalizer), then iterated:

    r_p = A y - b            (primal residual)
    r_d = A' lam + s - c     (dual residual)
    mu  = y's / n            (duality measure)

Each step solves the normal equations ``(A D A') dlam = rhs`` with
``D = diag(y / s)``, takes a damped step preserving ``y, s > 0``, and
stops when all residuals and ``mu`` are tiny.  Infeasible or unbounded
instances do not converge; they are reported as such via a certificate
heuristic (diverging iterates with shrinking mu => unbounded; stalling
primal residual => infeasible), falling back to ``ERROR`` when the
evidence is ambiguous.
"""

from __future__ import annotations

import numpy as np

from repro.lp.backends.base import Backend
from repro.lp.backends.simplex import _canonicalize
from repro.lp.compile import CompiledProblem, compile_model
from repro.lp.model import Model
from repro.lp.result import Solution, SolveStatus
from repro.obs import registry as obs

_TOL = 1e-8


class InteriorPointBackend(Backend):
    """Dense primal-dual path-following with predictor-corrector."""

    name = "interior_point"

    def solve(self, model: Model, **options) -> Solution:
        max_iter = int(options.pop("max_iter", 200))
        # Span covers lowering + optimizing (see the HiGHS backend).
        with obs.span("lp.solve", backend=self.name):
            problem = compile_model(model)

            if problem.num_variables == 0:
                return Solution(
                    SolveStatus.OPTIMAL, np.zeros(0), problem.c0, model._id,
                    solver=self.name,
                )

            solution = self._solve_compiled(problem, model._id, max_iter)
        obs.counter("lp.ipm.iterations", solution.iterations)
        return solution

    def _solve_compiled(
        self, problem: CompiledProblem, model_id: int, max_iter: int
    ) -> Solution:
        canon = _canonicalize(problem)
        a, b, c = canon.a, canon.b, canon.c
        m, n = a.shape

        if m == 0:
            # Only bounds: optimum at zero unless a negative cost makes
            # it unbounded above in some coordinate.
            if np.any(c < -_TOL):
                return Solution(
                    SolveStatus.UNBOUNDED, np.zeros(problem.num_variables),
                    float("nan"), model_id, solver=self.name,
                )
            x = canon.recover(np.zeros(n))
            shift = canon.c0 - problem.c0
            obj = (-shift if problem.maximize else shift) + problem.c0
            return Solution(SolveStatus.OPTIMAL, x, obj, model_id, solver=self.name)

        with np.errstate(all="ignore"):
            status, y, iterations = self._path_follow(a, b, c, max_iter)
        if status is not SolveStatus.OPTIMAL:
            return Solution(
                status, np.zeros(problem.num_variables), float("nan"),
                model_id, solver=self.name, iterations=iterations,
            )

        x = canon.recover(y)
        canonical_value = float(c @ y)
        shift = canon.c0 - problem.c0
        if problem.maximize:
            objective = -(canonical_value + shift) + problem.c0
        else:
            objective = canonical_value + shift + problem.c0
        return Solution(
            SolveStatus.OPTIMAL, x, objective, model_id,
            solver=self.name, iterations=iterations,
        )

    @staticmethod
    def _path_follow(a, b, c, max_iter):
        """Core iteration on min c'y, Ay=b, y>=0.  Returns
        (status, y, iterations)."""
        m, n = a.shape
        scale = max(1.0, float(np.abs(b).max(initial=0.0)),
                    float(np.abs(c).max(initial=0.0)))

        y = np.ones(n)
        s = np.ones(n)
        lam = np.zeros(m)
        at = a.T

        def solve_normal(d, rhs):
            """(A D A') x = rhs with Tikhonov fallback for rank loss."""
            ada = (a * d) @ at
            try:
                return np.linalg.solve(ada + 1e-12 * np.eye(m), rhs)
            except np.linalg.LinAlgError:
                return np.linalg.lstsq(ada, rhs, rcond=None)[0]

        for iteration in range(1, max_iter + 1):
            r_p = a @ y - b
            r_d = at @ lam + s - c
            mu = float(y @ s) / n

            if not (
                np.isfinite(mu)
                and np.isfinite(r_p).all()
                and np.isfinite(r_d).all()
            ):
                # Numerics have collapsed: the iterates ran off along a
                # certificate direction we failed to classify earlier.
                return SolveStatus.ERROR, y, iteration

            if (
                np.abs(r_p).max(initial=0.0) < _TOL * scale
                and np.abs(r_d).max(initial=0.0) < _TOL * scale
                and mu < _TOL * scale
            ):
                return SolveStatus.OPTIMAL, y, iteration

            # Divergence heuristics.  A primal ray (y exploding while
            # residuals stay controlled and the objective plunges)
            # signals unboundedness; a stalled primal residual with
            # exploding duals signals infeasibility.
            if np.abs(y).max() > 1e13:
                return SolveStatus.UNBOUNDED, y, iteration
            if np.abs(lam).max() > 1e13:
                return SolveStatus.INFEASIBLE, y, iteration

            d = y / s

            # Predictor (affine scaling) direction.  Derivation: from
            # the KKT Newton system with
            #   ds = -r_d - A' dlam,  dy = -(y s + y ds)/s  (sigma = 0)
            # => A D A' dlam = -r_p - A D r_d + A y.
            rhs_aff = -r_p - a @ (d * r_d) + a @ y
            dlam = solve_normal(d, rhs_aff)
            ds = -r_d - at @ dlam
            dy = -(y * s + y * ds) / s

            alpha_p = _step(y, dy)
            alpha_d = _step(s, ds)
            mu_aff = float((y + alpha_p * dy) @ (s + alpha_d * ds)) / n
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.1

            # Corrector: re-solve with the centering + second-order term.
            comp = y * s + dy * ds - sigma * mu
            rhs = -r_p - a @ (d * r_d) + a @ (comp / s)
            dlam = solve_normal(d, rhs)
            ds = -r_d - at @ dlam
            dy = -(comp + y * ds) / s

            alpha_p = 0.99 * _step(y, dy)
            alpha_d = 0.99 * _step(s, ds)
            y = y + alpha_p * dy
            s = s + alpha_d * ds
            lam = lam + alpha_d * dlam

        return SolveStatus.ERROR, y, max_iter


def _step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha in (0, 1] with v + alpha dv >= 0."""
    negative = dv < 0
    if not np.any(negative):
        return 1.0
    return min(1.0, float(np.min(-v[negative] / dv[negative])))
