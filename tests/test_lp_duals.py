"""Unit + property tests for LP dual values (shadow prices)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.lp import Model, compile_model, solve_lp
from repro.lp.constraint import Sense
from tests.lp_simplex import solve_simplex


def test_simple_ge_dual():
    # min 3x s.t. x >= 4: relaxing the rhs by 1 changes the optimum by 3.
    m = Model()
    x = m.add_variable("x")
    con = m.add_constraint(x >= 4)
    m.minimize(3 * x)
    solution = m.solve()
    assert solution.has_duals
    assert solution.dual(con) == pytest.approx(3.0)


def test_simple_le_dual_in_max():
    # max 2x s.t. x <= 5: one more unit of rhs is worth 2.
    m = Model()
    x = m.add_variable("x")
    con = m.add_constraint(x <= 5)
    m.maximize(2 * x)
    solution = m.solve()
    assert solution.dual(con) == pytest.approx(2.0)


def test_eq_dual():
    m = Model()
    x = m.add_variable("x")
    y = m.add_variable("y")
    con = m.add_constraint(x + y == 10)
    m.minimize(2 * x + 3 * y)
    solution = m.solve()
    # Cheapest way to satisfy one more unit of the equality is x at 2.
    assert solution.dual(con) == pytest.approx(2.0)


def test_slack_constraint_has_zero_dual():
    m = Model()
    x = m.add_variable("x", lb=1.0)
    binding = m.add_constraint(x >= 1)  # ties with the bound; may bind
    slack = m.add_constraint(x <= 100)  # far from optimal x = 1
    m.minimize(x)
    solution = m.solve()
    assert solution.dual(slack) == pytest.approx(0.0, abs=1e-9)


def test_duals_are_extracted_on_first_read_only(monkeypatch):
    """The scheduling path never reads duals, so a solve must not pay
    the per-row walk; the first read resolves them, once."""
    from repro.lp.backends.highs import HighsBackend

    calls = []
    extract = HighsBackend._extract_duals
    monkeypatch.setattr(
        HighsBackend, "_extract_duals",
        staticmethod(lambda *args: calls.append(1) or extract(*args)),
    )
    m = Model()
    x = m.add_variable("x")
    con = m.add_constraint(x >= 4)
    m.minimize(3 * x)
    solution = m.solve()
    assert solution.value(x) == pytest.approx(4.0) and not calls
    assert solution.dual(con) == pytest.approx(3.0)
    assert solution.has_duals and solution.dual(con) == pytest.approx(3.0)
    assert len(calls) == 1


def test_simplex_backend_has_no_duals():
    m = Model()
    x = m.add_variable("x")
    con = m.add_constraint(x >= 1)
    m.minimize(x)
    solution = solve_simplex(m)
    assert not solution.has_duals
    with pytest.raises(ModelError, match="solver 'simplex' does not report dual values"):
        solution.dual(con)


def test_a_compiled_problem_has_row_duals_but_no_constraint_map():
    """HiGHS reports the duals of a compiled problem; there is just no
    constraint to key them by, and the error says where they are."""
    m = Model()
    x = m.add_variable("x")
    con = m.add_constraint(x >= 4)
    m.minimize(3 * x)
    solution = solve_lp(compile_model(m))
    assert solution.row_duals.tolist() == pytest.approx([-3.0])  # x >= 4 lowered to -x <= -4
    assert not solution.has_duals
    with pytest.raises(ModelError, match="no constraints to key duals by; read row_duals"):
        solution.dual(con)


def test_unknown_constraint_rejected():
    m = Model()
    x = m.add_variable("x")
    m.add_constraint(x >= 1)
    m.minimize(x)
    solution = m.solve()
    m2 = Model()
    y = m2.add_variable("y")
    foreign = y >= 0
    with pytest.raises(ModelError):
        solution.dual(foreign)


@st.composite
def bounded_lps(draw):
    n = draw(st.integers(1, 4))
    anchor = [draw(st.integers(0, 5)) for _ in range(n)]
    m_count = draw(st.integers(1, 5))
    cons = []
    for _ in range(m_count):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
        slack = draw(st.integers(0, 6))
        kind = draw(st.sampled_from(["le", "ge"]))
        at = sum(c * a for c, a in zip(coeffs, anchor))
        rhs = at + slack if kind == "le" else at - slack
        cons.append((coeffs, kind, rhs))
    obj = [draw(st.integers(-3, 3)) for _ in range(n)]
    return n, cons, obj


@settings(max_examples=40, deadline=None)
@given(bounded_lps())
def test_complementary_slackness(spec):
    """At an optimum: every constraint with a non-zero dual is tight,
    and duals carry the right sign for a minimization."""
    n, cons, obj = spec
    m = Model()
    xs = [m.add_variable(f"x{i}", lb=0.0, ub=10.0) for i in range(n)]
    handles = []
    for coeffs, kind, rhs in cons:
        expr = sum((c * x for c, x in zip(coeffs[1:], xs[1:])), coeffs[0] * xs[0])
        handles.append(
            m.add_constraint(expr <= rhs if kind == "le" else expr >= rhs)
        )
    m.minimize(sum((c * x for c, x in zip(obj[1:], xs[1:])), obj[0] * xs[0]))
    solution = m.solve()
    for (coeffs, kind, rhs), con in zip(cons, handles):
        if con.expr.is_constant():
            continue  # trivially-true constraints are dropped unregistered
        dual = solution.dual(con) if solution.has_duals else 0.0
        value = solution.value(con.expr) + rhs  # lhs evaluated
        slack = rhs - value if kind == "le" else value - rhs
        if abs(dual) > 1e-7:
            assert slack == pytest.approx(0.0, abs=1e-6)
        # Sign: relaxing a <= in a min problem cannot increase cost.
        if kind == "le":
            assert dual <= 1e-9
        else:
            assert dual >= -1e-9
