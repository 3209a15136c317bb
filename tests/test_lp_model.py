"""Unit tests for Model construction and solving behavior."""

import pytest

from repro.errors import InfeasibleError, ModelError, UnboundedError
from tests.lp_model import Model
from tests.lp_simplex import SOLVERS


def test_add_variable_defaults():
    m = Model()
    x = m.add_variable("x")
    assert x.lb == 0.0
    assert x.ub == float("inf")


def test_add_variable_bounds_validated():
    m = Model()
    with pytest.raises(ModelError):
        m.add_variable("x", lb=2.0, ub=1.0)


def test_add_variables_names():
    m = Model()
    xs = m.add_variables(3, prefix="f")
    assert [v.name for v in xs] == ["f[0]", "f[1]", "f[2]"]
    assert m.num_variables == 3


def test_add_constraint_rejects_non_constraint():
    m = Model()
    with pytest.raises(ModelError):
        m.add_constraint(42)  # type: ignore[arg-type]


def test_trivially_true_constant_constraint_dropped():
    m = Model()
    x = m.add_variable("x")
    m.add_constraint(x - x <= 5)  # 0 <= 5, constant and true
    assert m.num_constraints == 0


def test_constant_false_constraint_raises():
    m = Model()
    x = m.add_variable("x")
    with pytest.raises(ModelError):
        m.add_constraint(x - x >= 5)  # 0 >= 5


def test_foreign_constraint_rejected():
    m1, m2 = Model(), Model()
    x = m1.add_variable("x")
    with pytest.raises(ModelError):
        m2.add_constraint(x >= 0)


def test_objective_must_be_linear():
    m = Model()
    with pytest.raises(ModelError):
        m.minimize("nonsense")  # type: ignore[arg-type]


def test_scalar_objective_allowed():
    m = Model()
    m.add_variable("x")
    m.minimize(7)
    solution = m.solve()
    assert solution.objective == pytest.approx(7.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_basic_minimize(solve):
    m = Model()
    x = m.add_variable("x")
    y = m.add_variable("y")
    m.add_constraint(x + y >= 10)
    m.minimize(3 * x + 5 * y)
    solution = solve(m)
    assert solution.objective == pytest.approx(30.0)
    assert solution.value(x) == pytest.approx(10.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_basic_maximize(solve):
    m = Model()
    x = m.add_variable("x", ub=4.0)
    y = m.add_variable("y", ub=6.0)
    m.add_constraint(x + y <= 8)
    m.maximize(x + 2 * y)
    solution = solve(m)
    assert solution.objective == pytest.approx(14.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_objective_constant_term(solve):
    m = Model()
    x = m.add_variable("x", lb=1.0)
    m.minimize(2 * x + 100)
    solution = solve(m)
    assert solution.objective == pytest.approx(102.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_infeasible_raises(solve):
    m = Model()
    x = m.add_variable("x", ub=1.0)
    m.add_constraint(x >= 5)
    m.minimize(x)
    with pytest.raises(InfeasibleError):
        solve(m)


@pytest.mark.parametrize("solve", SOLVERS)
def test_unbounded_raises(solve):
    m = Model()
    x = m.add_variable("x")
    m.maximize(x)
    with pytest.raises(UnboundedError):
        solve(m)


def test_max_epigraph_tracks_maximum():
    m = Model()
    u = m.add_variable("u", lb=2.0)
    z = m.add_max_epigraph([u, 3 * u - 5, 1.0], name="z")
    m.minimize(z)
    solution = m.solve()
    # At u = 2: max(2, 1, 1) = 2.
    assert solution.objective == pytest.approx(2.0)


def test_max_epigraph_with_lb():
    m = Model()
    u = m.add_variable("u")
    z = m.add_max_epigraph([u], lb=7.0)
    m.minimize(z)
    assert m.solve().objective == pytest.approx(7.0)


def test_max_epigraph_empty_rejected():
    m = Model()
    with pytest.raises(ModelError):
        m.add_max_epigraph([])


def test_solution_value_of_expression():
    m = Model()
    x = m.add_variable("x", lb=3.0)
    y = m.add_variable("y", lb=4.0)
    m.minimize(x + y)
    solution = m.solve()
    assert solution.value(2 * x - y + 1) == pytest.approx(3.0)
    assert solution.value(5) == pytest.approx(5.0)


def test_solution_guards_model_identity():
    m1, m2 = Model(), Model()
    x1 = m1.add_variable("x")
    m1.minimize(x1)
    m2.add_variable("x")
    m2.minimize(0)
    solution2 = m2.solve()
    with pytest.raises(ModelError):
        solution2.value(x1)


@pytest.mark.parametrize("solve", SOLVERS)
def test_equality_constraints(solve):
    m = Model()
    x = m.add_variable("x")
    y = m.add_variable("y")
    m.add_constraint(x + y == 10)
    m.add_constraint(x - y == 2)
    m.minimize(x)
    solution = solve(m)
    assert solution.value(x) == pytest.approx(6.0)
    assert solution.value(y) == pytest.approx(4.0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_free_variable(solve):
    m = Model()
    x = m.add_variable("x", lb=None)
    m.add_constraint(x >= -10)
    m.minimize(x)
    solution = solve(m)
    assert solution.value(x) == pytest.approx(-10.0)
