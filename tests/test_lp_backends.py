"""HiGHS and the simplex oracle on fixed LPs: each case, and their agreement."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp import SolveStatus
from tests.lp_model import Model, solve_lp
from tests.lp_simplex import SOLVERS, solve_simplex


def _transport_model():
    """A 2x3 transportation problem with known optimum 46."""
    m = Model("transport")
    supply = [20, 30]
    demand = [10, 25, 15]
    cost = [[2, 4, 5], [3, 1, 7]]
    x = {}
    for i in range(2):
        for j in range(3):
            x[i, j] = m.add_variable(f"x[{i},{j}]")
    for i in range(2):
        m.add_constraint(sum((x[i, j] for j in range(1, 3)), x[i, 0].as_expr()) <= supply[i])
    for j in range(3):
        m.add_constraint(x[0, j] + x[1, j] == demand[j])
    m.minimize(
        sum(
            (cost[i][j] * x[i, j] for i in range(2) for j in range(3) if (i, j) != (0, 0)),
            cost[0][0] * x[0, 0],
        )
    )
    return m


@pytest.mark.parametrize("solve", SOLVERS)
def test_transportation_problem(solve):
    m = _transport_model()
    solution = solve(m)
    # Optimum 125: x[1,1]=25 (cost 25), x[0,2]=15 (75), x[0,0]=5 (10),
    # x[1,0]=5 (15).
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(125.0, abs=1e-6)


@pytest.mark.parametrize("solve", SOLVERS)
def test_a_compiled_problem_solves_as_its_model_does(solve):
    """``compile_model`` and both solvers take an already compiled
    problem as it is; ``solve_lp`` raises the same typed errors."""
    from repro.errors import InfeasibleError
    from repro.lp import compile_model as hand_off
    from tests.lp_model import compile_model

    model = _transport_model()
    problem = compile_model(model)
    assert compile_model(problem) is problem and hand_off(problem) is problem
    compiled = solve(problem)
    assert compiled.objective == solve(model).objective
    assert not hasattr(compiled, "dual")  # no constraints to key duals by
    problem.b_eq = problem.b_eq + 100.0  # demand beyond every supply
    with pytest.raises(InfeasibleError, match="transport"):
        solve(problem)


def test_backends_agree_on_transport():
    a = solve_lp(_transport_model())
    b = solve_simplex(_transport_model())
    assert a.objective == pytest.approx(b.objective, abs=1e-6)


@pytest.mark.parametrize("solve", SOLVERS)
def test_degenerate_problem(solve):
    # Multiple optima: any split of x+y=1 has the same cost.
    m = Model()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.add_constraint(x + y == 1)
    m.minimize(x + y)
    solution = solve(m)
    assert solution.objective == pytest.approx(1.0)
    assert solution.value(x) + solution.value(y) == pytest.approx(1.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_redundant_constraints(solve):
    m = Model()
    x = m.add_variable("x", lb=1.0)
    m.add_constraint(x >= 1)
    m.add_constraint(x >= 1)
    m.add_constraint(2 * x >= 2)
    m.minimize(x)
    assert solve(m).objective == pytest.approx(1.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_variable_with_equal_bounds(solve):
    m = Model()
    x = m.add_variable("x", lb=3.0, ub=3.0)
    y = m.add_variable("y")
    m.add_constraint(y >= x)
    m.minimize(y)
    assert solve(m).objective == pytest.approx(3.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_negative_lower_bounds(solve):
    m = Model()
    x = m.add_variable("x", lb=-5.0, ub=-1.0)
    m.minimize(x)
    assert solve(m).objective == pytest.approx(-5.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_upper_bound_only_variable(solve):
    m = Model()
    x = m.add_variable("x", lb=None, ub=10.0)
    m.maximize(x)
    assert solve(m).objective == pytest.approx(10.0)


def test_simplex_iteration_limit():
    m = Model()
    xs = m.add_variables(5)
    for i in range(4):
        m.add_constraint(xs[i] + xs[i + 1] >= 1)
    m.minimize(sum(xs[1:], xs[0].as_expr()))
    with pytest.raises(SolverError):
        solve_simplex(m, max_iter=1)
    # HiGHS says which limit: its model-status text rides the SolverError.
    with pytest.raises(SolverError, match="Iteration limit reached"):
        m.solve(presolve="off", simplex_iteration_limit=0)


def test_a_misspelled_highs_option_is_an_error():
    """HiGHS's own option names; one it refuses is a ModelError, never a
    warning followed by a solve with the defaults."""
    from repro.errors import ModelError

    m = _transport_model()
    with pytest.raises(ModelError, match="presolv"):
        m.solve(presolv="off")
    with pytest.raises(ModelError, match="presolve"):
        m.solve(presolve=False)  # HiGHS's presolve is "on"/"off"
    assert m.solve(presolve="off", time_limit=10.0).objective == pytest.approx(125.0)


def test_solution_repr():
    m = Model()
    x = m.add_variable("x", lb=2.0)
    m.minimize(x)
    text = repr(m.solve())
    assert "optimal" in text and "2" in text


# -- the Postcard LP through both solvers ---------------------------------

#: Tight enough that a genuinely different optimum fails.
REL = 1e-5


def _paper_model(topology, files):
    from repro.core import build_postcard_model
    from repro.core.state import NetworkState

    return build_postcard_model(NetworkState(topology, horizon=100), files)


@pytest.mark.parametrize("solve", SOLVERS)
def test_paper_examples_reach_the_optimum(solve, fig1, fig3, fig3_files):
    """Figs. 1 and 3: 12 and 98/3, whichever solver is asked."""
    from repro.traffic import TransferRequest

    first = _paper_model(fig1, [TransferRequest(2, 3, 6.0, 3)])
    third = _paper_model(fig3, fig3_files)
    assert solve(first.model).objective == pytest.approx(12.0, rel=REL)
    assert solve(third.model).objective == pytest.approx(98.0 / 3.0, rel=REL)

