"""Unit + property tests for LP dual values (shadow prices), read by row
handle: ``problem.duals(solution)[row]`` for the handle
:meth:`repro.lp.LPBuilder.row` returned."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.lp import EQ, GE, LE, LPBuilder, solve_lp
from repro.lp.backends import highs
from tests.lp_model import Model
from tests.lp_simplex import solve_simplex


def _one_row(sense, rhs, cost, maximize=False):
    """``cost * x`` optimized subject to ``x (sense) rhs``."""
    lp = LPBuilder()
    x = lp.column("x")
    row = lp.row([x], [1.0], sense, rhs)
    lp.objective([x], [cost], maximize=maximize)
    return lp.compile(), row


def test_simple_ge_dual():
    # min 3x s.t. x >= 4: relaxing the rhs by 1 changes the optimum by 3.
    problem, row = _one_row(GE, 4.0, 3.0)
    assert problem.duals(solve_lp(problem))[row] == pytest.approx(3.0)


def test_simple_le_dual_in_max():
    # max 2x s.t. x <= 5: one more unit of rhs is worth 2.
    problem, row = _one_row(LE, 5.0, 2.0, maximize=True)
    assert problem.duals(solve_lp(problem))[row] == pytest.approx(2.0)


def test_eq_dual():
    lp = LPBuilder()
    x, y = lp.column("x", cost=2.0), lp.column("y", cost=3.0)
    row = lp.row([x, y], 1.0, EQ, 10.0)
    problem = lp.compile()
    # Cheapest way to satisfy one more unit of the equality is x at 2.
    assert problem.duals(solve_lp(problem))[row] == pytest.approx(2.0)


def test_slack_constraint_has_zero_dual():
    lp = LPBuilder()
    x = lp.column("x", lb=1.0, cost=1.0)
    lp.row([x], [1.0], GE, 1.0)  # ties with the bound; may bind
    slack = lp.row([x], [1.0], LE, 100.0)  # far from optimal x = 1
    problem = lp.compile()
    assert problem.duals(solve_lp(problem))[slack] == pytest.approx(0.0, abs=1e-9)


def test_duals_are_extracted_on_first_read_only(monkeypatch):
    """The scheduling path never reads duals, so a solve must not copy
    them out of HiGHS; the first read resolves them, once."""
    calls = []
    extract = highs._row_duals
    monkeypatch.setattr(highs, "_row_duals", lambda s: calls.append(1) or extract(s))
    problem, row = _one_row(GE, 4.0, 3.0)
    solution = solve_lp(problem)
    assert solution.x[0] == pytest.approx(4.0) and not calls
    assert problem.duals(solution)[row] == pytest.approx(3.0)
    assert problem.duals(solution)[row] == pytest.approx(3.0)
    assert len(calls) == 1


def test_simplex_backend_has_no_duals():
    problem, _ = _one_row(GE, 1.0, 1.0)
    solution = solve_simplex(problem)
    with pytest.raises(ModelError, match="solver 'simplex' does not report dual values"):
        problem.duals(solution)


def test_a_compiled_problem_has_row_duals_but_no_constraint_map():
    """HiGHS reports the duals of every compiled row; a problem written
    as arrays (no ``row_map``, as the Postcard LP is) states no rows to
    key them by, so :meth:`duals` is empty."""
    problem, _ = _one_row(GE, 4.0, 3.0)
    problem.row_map = []
    solution = solve_lp(problem)
    assert solution.row_duals.tolist() == pytest.approx([-3.0])  # x >= 4 lowered to -x <= -4
    assert problem.duals(solution).tolist() == []


def test_unknown_constraint_rejected():
    """The oracle's solution keys duals by its own model's constraints."""
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
    maximize = draw(st.booleans())
    return n, cons, obj, maximize


@settings(max_examples=40, deadline=None)
@given(bounded_lps())
def test_complementary_slackness(spec):
    """At an optimum: every row with a non-zero dual is tight, duals
    carry the right sign, and each equals the oracle's dual of the same
    constraint stated on a ``Model``."""
    n, cons, obj, maximize = spec
    lp = LPBuilder()
    xs = [lp.column(i, lb=0.0, ub=10.0) for i in range(n)]
    handles = [
        lp.row(xs, [float(c) for c in coeffs], LE if kind == "le" else GE, rhs)
        for coeffs, kind, rhs in cons
    ]
    lp.objective(xs, [float(c) for c in obj], maximize=maximize)
    problem = lp.compile()
    solution = solve_lp(problem)
    duals = problem.duals(solution)

    m = Model()
    vs = [m.add_variable(f"x{i}", lb=0.0, ub=10.0) for i in range(n)]
    oracle = []
    for coeffs, kind, rhs in cons:
        expr = sum((c * v for c, v in zip(coeffs[1:], vs[1:])), coeffs[0] * vs[0])
        oracle.append(m.add_constraint(expr <= rhs if kind == "le" else expr >= rhs))
    objective = sum((c * v for c, v in zip(obj[1:], vs[1:])), obj[0] * vs[0])
    m.maximize(objective) if maximize else m.minimize(objective)
    reference = m.solve()

    sign = -1.0 if maximize else 1.0  # the sign rule below reads a minimization
    for (coeffs, kind, rhs), row, con in zip(cons, handles, oracle):
        if row is None:
            assert con.expr.is_constant()  # trivially true: dropped
            continue
        dual = duals[row]
        assert dual == reference.dual(con)
        value = sum(c * solution.x[x] for c, x in zip(coeffs, xs))
        slack = rhs - value if kind == "le" else value - rhs
        if abs(dual) > 1e-7:
            assert slack == pytest.approx(0.0, abs=1e-6)
        # Sign: relaxing a <= in a min problem cannot increase cost.
        if kind == "le":
            assert sign * dual <= 1e-9
        else:
            assert sign * dual >= -1e-9
