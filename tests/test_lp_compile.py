"""Unit tests for lowering a Model to sparse standard form."""

import numpy as np
import pytest

from tests.lp_model import Model, compile_model


def test_empty_model():
    problem = compile_model(Model())
    assert problem.num_variables == 0
    assert problem.num_inequalities == 0
    assert problem.num_equalities == 0


def test_objective_vector_and_constant():
    m = Model()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.minimize(2 * x - y + 7)
    problem = compile_model(m)
    assert problem.c.tolist() == [2.0, -1.0]
    assert problem.c0 == 7.0
    assert not problem.maximize


def test_maximize_negates_costs():
    m = Model()
    x = m.add_variable("x")
    m.maximize(3 * x)
    problem = compile_model(m)
    assert problem.c.tolist() == [-3.0]
    assert problem.maximize


def test_le_row_layout():
    m = Model()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.add_constraint(2 * x + 3 * y <= 12)
    problem = compile_model(m)
    assert problem.a_ub.toarray().tolist() == [[2.0, 3.0]]
    assert problem.b_ub.tolist() == [12.0]


def test_ge_row_is_negated():
    m = Model()
    x = m.add_variable("x")
    m.add_constraint(x >= 4)
    problem = compile_model(m)
    assert problem.a_ub.toarray().tolist() == [[-1.0]]
    assert problem.b_ub.tolist() == [-4.0]


def test_eq_rows_separate():
    m = Model()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.add_constraint(x + y == 5)
    m.add_constraint(x <= 2)
    problem = compile_model(m)
    assert problem.num_equalities == 1
    assert problem.num_inequalities == 1
    assert problem.a_eq.toarray().tolist() == [[1.0, 1.0]]
    assert problem.b_eq.tolist() == [5.0]


def test_bounds_passed_through():
    m = Model()
    m.add_variable("a", lb=1.0, ub=2.0)
    m.add_variable("b", lb=None)
    problem = compile_model(m)
    assert tuple(problem.bounds[0]) == (1.0, 2.0)
    assert tuple(problem.bounds[1]) == (float("-inf"), float("inf"))


def test_zero_coefficients_not_stored():
    m = Model()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.add_constraint(x + y - y <= 3)
    problem = compile_model(m)
    # The y coefficient cancels to zero and must not appear.
    assert problem.a_ub.nnz == 1


def test_sparse_shapes_match():
    m = Model()
    xs = m.add_variables(10)
    for i in range(9):
        m.add_constraint(xs[i] + xs[i + 1] <= 1)
    m.minimize(sum(xs[1:], xs[0].as_expr()))
    problem = compile_model(m)
    assert problem.a_ub.shape == (9, 10)
    assert problem.c.shape == (10,)
