"""The HiGHS backend against ``scipy.optimize.linprog``, exactly.

``linprog(method="highs")`` was the backend; it stays here as the
oracle.  Both ask HiGHS the same question — same options, same stacked
matrix, same status table, same post-solve check — so status, ``x``,
objective, iteration count and (for a lowered :class:`Model`) every row
dual must be equal, not close: on the LP lane's own problems, recorded from an
``lp_pressure``-shaped hybrid stream, on the edge cases, and on random
small LPs.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.errors import ModelError, SolverError
from repro.heuristic import HybridScheduler
from repro.lp import SolveStatus
from repro.lp.backends import highs as native
from repro.lp.backends.highs import HighsBackend
from repro.service import ServiceConfig
from repro.traffic import TransferRequest
from tests.lp_model import Model, compile_model
from tests.lp_reference import as_scipy

#: Tier-1 runs a handful of examples; CI's ``tests`` job goes deeper.
PROPERTY_EXAMPLES = int(os.environ.get("LP_ARCS_EXAMPLES", "10"))

#: linprog's status codes; 1 (a limit) and 4 (trouble) are errors.
LINPROG_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


def assert_native_equals_linprog(model, options=None, linprog_options=None, method="highs"):
    """Solve ``model`` both ways; everything the backend reports must be
    what ``linprog`` reports, bit for bit.  Returns the status."""
    problem = compile_model(model)
    solution = HighsBackend().solve(problem, **(options or {}))
    result = linprog(
        problem.c,
        A_ub=as_scipy(problem.a_ub) if problem.num_inequalities else None,
        b_ub=problem.b_ub if problem.num_inequalities else None,
        A_eq=as_scipy(problem.a_eq) if problem.num_equalities else None,
        b_eq=problem.b_eq if problem.num_equalities else None,
        bounds=problem.bounds,
        method=method,
        options=linprog_options,
    )
    status = LINPROG_STATUS.get(result.status, SolveStatus.ERROR)
    assert solution.status is status, (solution.message, result.message)
    assert solution.iterations == result.nit
    if status is not SolveStatus.OPTIMAL:
        return status
    assert np.array_equal(solution.x, result.x)
    assert solution.objective == (-result.fun if problem.maximize else result.fun) + problem.c0
    flip = -1.0 if problem.maximize else 1.0
    duals = problem.duals(solution)
    for dual, (kind, row, sign) in zip(duals, problem.row_map):
        marginals = (result.ineqlin if kind == "ub" else result.eqlin).marginals
        assert dual == flip * sign * float(marginals[row])
    return status


# -- the LP lane's own problems --------------------------------------------


@pytest.fixture(scope="module")
def lane_problems():
    """What the hybrid hands HiGHS on an ``lp_pressure``-shaped stream:
    10 DCs at capacity 100, 40 files of 10-60 GB per slot, deadlines 2-6."""
    recorded = []
    solve = HighsBackend.solve

    def record(self, model, **options):
        recorded.append(compile_model(model))
        return solve(self, model, **options)

    topology = ServiceConfig(datacenters=10, capacity=100.0).topology()
    scheduler = HybridScheduler(topology, 64)
    rng = np.random.default_rng(2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HighsBackend, "solve", record)
        for slot in range(4):
            source = rng.integers(0, 10, 40)
            destination = (source + rng.integers(1, 10, 40)) % 10
            sizes, deadlines = rng.uniform(10.0, 60.0, 40), rng.integers(2, 7, 40)
            scheduler.on_slot(slot, [
                TransferRequest(int(s), int(d), round(float(size), 6), int(t), release_slot=slot)
                for s, d, size, t in zip(source, destination, sizes, deadlines)
            ])
    return recorded


def test_the_lane_problems_solve_as_linprog_solves_them(lane_problems):
    assert len(lane_problems) == 3  # slots 1-3 escalate
    assert all(p.num_inequalities and p.num_equalities for p in lane_problems)
    for problem in lane_problems:
        assert assert_native_equals_linprog(problem) is SolveStatus.OPTIMAL


def test_the_interior_point_solver_agrees(lane_problems):
    """What the backend picks above 20,000 columns, asked for by name."""
    status = assert_native_equals_linprog(lane_problems[0], {"solver": "ipm"}, method="highs-ipm")
    assert status is SolveStatus.OPTIMAL


# -- the binding ------------------------------------------------------------


def test_the_binding_is_the_module_scipy_exposes(monkeypatch):
    """One extension, one module: scipy's import path and the backend's
    file load meet in ``sys.modules``, whichever ran first, and a loaded
    extension is never executed again."""
    from scipy.optimize._highspy import _core

    assert native._highs is _core is sys.modules["scipy.optimize._highspy._core"]
    loads = []
    monkeypatch.setattr(native.importlib.util, "module_from_spec", loads.append)
    assert native._load_binding(Path(_core.__file__).parent) is _core and not loads


def test_a_folder_without_the_extension_is_refused(tmp_path, monkeypatch):
    loaded, loads = sys.modules["scipy.optimize._highspy._core"], []
    monkeypatch.setattr(native.importlib.util, "module_from_spec", loads.append)
    with pytest.raises(ImportError, match=r"needs scipy >= 1\.15"):
        native._load_binding(tmp_path)
    assert sys.modules["scipy.optimize._highspy._core"] is loaded and not loads


# -- edge cases --------------------------------------------------------------


def _small_model(maximize=False, free=False):
    m = Model("small")
    x = m.add_variable("x", ub=4.0)
    y = m.add_variable("y", lb=None if free else 0.0)
    m.add_constraint(x + y <= 6)
    m.add_constraint(x - y >= -2)
    m.add_constraint(x + 2 * y == 5)
    objective = 3 * x + y + 1.5
    m.maximize(objective) if maximize else m.minimize(objective)
    return m


@pytest.mark.parametrize("maximize, free", [(False, False), (True, False), (False, True)])
def test_maximisation_and_free_variables_agree(maximize, free):
    assert assert_native_equals_linprog(_small_model(maximize, free)) is SolveStatus.OPTIMAL


def test_a_model_without_rows_agrees_and_one_without_columns_is_short_cut():
    m = Model("no rows")
    x = m.add_variable("x", lb=-1.0, ub=2.0)
    m.minimize(x + 7.0)
    assert assert_native_equals_linprog(m) is SolveStatus.OPTIMAL
    empty = Model("empty")
    empty.minimize(3.0)
    solution = empty.solve()
    assert solution.objective == 3.0 and solution.x.size == 0
    with pytest.raises(ValueError):  # linprog has no answer for no columns
        linprog(np.zeros(0))


def test_infeasible_unbounded_and_iteration_limited_models_agree():
    infeasible = Model("infeasible")
    x = infeasible.add_variable("x", ub=1.0)
    infeasible.add_constraint(x >= 2)
    infeasible.minimize(x)
    assert assert_native_equals_linprog(infeasible) is SolveStatus.INFEASIBLE

    unbounded = Model("unbounded")
    y = unbounded.add_variable("y", lb=None)
    unbounded.add_constraint(y <= 3)
    unbounded.minimize(y)
    assert assert_native_equals_linprog(unbounded) is SolveStatus.UNBOUNDED

    limited = _small_model()
    status = assert_native_equals_linprog(
        limited, {"presolve": "off", "simplex_iteration_limit": 0},
        {"presolve": False, "maxiter": 0},
    )
    assert status is SolveStatus.ERROR
    with pytest.raises(SolverError, match="Iteration limit reached"):
        limited.solve(presolve="off", simplex_iteration_limit=0)


@pytest.mark.parametrize("field", ["c", "b_ub", "b_eq"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_input_raises_as_linprog_does(field, bad):
    problem = compile_model(_small_model())
    getattr(problem, field)[0] = bad
    with pytest.raises(ValueError, match=field):
        HighsBackend().solve(problem)
    with pytest.raises(ValueError):
        linprog(problem.c, A_ub=as_scipy(problem.a_ub), b_ub=problem.b_ub,
                A_eq=as_scipy(problem.a_eq), b_eq=problem.b_eq, bounds=problem.bounds)


def test_legacy_none_bounds_read_as_infinite():
    problem = compile_model(_small_model(free=True))
    problem.bounds = [
        (lb, None if ub == np.inf else ub) for lb, ub in problem.bounds.tolist()
    ]
    problem.bounds[1] = (None, None)
    assert assert_native_equals_linprog(problem) is SolveStatus.OPTIMAL


def test_the_post_solve_check_refuses_an_answer_that_breaks_a_row():
    """linprog's last line of defence: an "optimal" answer that breaks a
    bound or a row by more than the tolerance is an error."""
    problem = compile_model(_small_model())
    x = HighsBackend().solve(problem).x
    rows = np.concatenate((as_scipy(problem.a_ub) @ x, as_scipy(problem.a_eq) @ x))
    assert native._breaks(problem, x, 0.0, rows) == ""
    m_ub, tol = problem.num_inequalities, native._CHECK_TOL
    for row, at in ((0, problem.b_ub[0]), (m_ub, problem.b_eq[0])):  # ub row, eq row
        shifted = rows.copy()
        shifted[row] = at + tol / 2  # within the tolerance
        assert native._breaks(problem, x, 0.0, shifted) == ""
        shifted[row] = at + 2 * tol
        assert "breaks" in native._breaks(problem, x, 0.0, shifted)
    assert "breaks" in native._breaks(problem, x + 10.0, 0.0, rows)  # x above its ub
    assert "breaks" in native._breaks(problem, x, float("nan"), rows)


def test_an_answer_that_fails_the_check_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(native, "_breaks", lambda *args: "breaks a row")
    with pytest.raises(SolverError, match="breaks a row"):
        _small_model().solve()


# -- random small LPs -----------------------------------------------------------


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 4))
    m = Model("random")
    xs = []
    for i in range(n):
        lb = draw(st.sampled_from([0.0, -3.0, None]))
        ub = draw(st.sampled_from([None, 5.0, 8.0]))
        xs.append(m.add_variable(f"x{i}", lb=lb, ub=ub))
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
        expr = sum((c * x for c, x in zip(coeffs[1:], xs[1:])), coeffs[0] * xs[0])
        rhs = draw(st.integers(-6, 6))
        sense = draw(st.sampled_from(["le", "ge", "eq"]))
        try:
            m.add_constraint({"le": expr <= rhs, "ge": expr >= rhs, "eq": expr == rhs}[sense])
        except ModelError:
            pass  # all-zero coefficients and a false constant
    costs = [draw(st.integers(-3, 3)) for _ in xs]
    objective = sum((c * x for c, x in zip(costs[1:], xs[1:])), costs[0] * xs[0])
    m.maximize(objective) if draw(st.booleans()) else m.minimize(objective)
    return m


@settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
@given(small_lps())
def test_property_native_equals_linprog_on_random_lps(model):
    assert_native_equals_linprog(model)
