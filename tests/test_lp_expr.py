"""Unit tests for LP expressions and variables."""

import pytest

from repro.errors import ModelError
from tests.lp_model import LinExpr, Model, Sense


@pytest.fixture
def model():
    return Model("t")


def test_variable_as_expr(model):
    x = model.add_variable("x")
    expr = x.as_expr()
    assert expr.coeffs == {x.index: 1.0}
    assert expr.constant == 0.0


def test_addition_of_variables(model):
    x, y = model.add_variable("x"), model.add_variable("y")
    expr = x + y
    assert expr.coeffs == {x.index: 1.0, y.index: 1.0}


def test_addition_collects_like_terms(model):
    x = model.add_variable("x")
    expr = x + x + x
    assert expr.coeffs == {x.index: 3.0}


def test_scalar_multiplication(model):
    x = model.add_variable("x")
    expr = 3 * x - x / 2
    assert expr.coeffs[x.index] == pytest.approx(2.5)


def test_subtraction_and_negation(model):
    x, y = model.add_variable("x"), model.add_variable("y")
    expr = -(x - y) + 1
    assert expr.coeffs[x.index] == -1.0
    assert expr.coeffs[y.index] == 1.0
    assert expr.constant == 1.0


def test_rsub_scalar(model):
    x = model.add_variable("x")
    expr = 5 - x
    assert expr.coeffs[x.index] == -1.0
    assert expr.constant == 5.0


def test_expr_multiplication_by_expr_rejected(model):
    x, y = model.add_variable("x"), model.add_variable("y")
    with pytest.raises(TypeError):
        _ = x.as_expr() * y.as_expr()  # type: ignore[operator]


def test_sum_helper(model):
    xs = model.add_variables(4, prefix="v")
    expr = LinExpr.sum(xs)
    assert all(expr.coeffs[v.index] == 1.0 for v in xs)
    mixed = LinExpr.sum([xs[0], 2.0, xs[0] + xs[1]])
    assert mixed.coeffs[xs[0].index] == 2.0
    assert mixed.constant == 2.0


def test_from_terms(model):
    x, y = model.add_variable("x"), model.add_variable("y")
    expr = LinExpr.from_terms([(2.0, x), (3.0, y), (1.0, x)], constant=4.0)
    assert expr.coeffs == {x.index: 3.0, y.index: 3.0}
    assert expr.constant == 4.0


def test_mixing_models_rejected():
    m1, m2 = Model("a"), Model("b")
    x, y = m1.add_variable("x"), m2.add_variable("y")
    with pytest.raises(ModelError):
        _ = x + y


def test_comparisons_produce_constraints(model):
    x = model.add_variable("x")
    le = x <= 3
    ge = x >= 1
    eq = x == 2
    assert le.sense is Sense.LE and le.rhs == pytest.approx(3)
    assert ge.sense is Sense.GE and ge.rhs == pytest.approx(1)
    assert eq.sense is Sense.EQ and eq.rhs == pytest.approx(2)


def test_constraint_has_no_truth_value(model):
    x = model.add_variable("x")
    with pytest.raises(TypeError):
        bool(x <= 3)


def test_is_constant(model):
    x = model.add_variable("x")
    assert LinExpr({}, 5.0).is_constant()
    assert not (x + 1).is_constant()
    assert (x - x).is_constant()


def test_repr_is_stable(model):
    x, y = model.add_variable("x"), model.add_variable("y")
    text = repr(2 * x + y + 1)
    assert "2" in text and "1" in text
