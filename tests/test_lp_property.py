"""Property-based cross-validation of HiGHS against the simplex oracle.

Random small LPs are generated and solved with both HiGHS and the pure
simplex implementation (``tests/lp_simplex.py``); they must agree on feasibility and, when
optimal, on the objective value.  Constraints are built around a known
feasible point so a healthy share of instances is feasible.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InfeasibleError, UnboundedError
from tests.lp_model import Model, Sense, solve_lp
from tests.lp_simplex import solve_simplex

_coef = st.integers(-4, 4)


@st.composite
def lp_specs(draw):
    """A declarative random LP: (n, constraints, objective coefs)."""
    n = draw(st.integers(1, 5))
    anchor = [draw(st.integers(0, 10)) for _ in range(n)]
    m_count = draw(st.integers(0, 6))
    constraints = []
    for _ in range(m_count):
        coeffs = [draw(_coef) for _ in range(n)]
        kind = draw(st.sampled_from(["le", "ge", "eq"]))
        slack = draw(st.integers(0, 10))
        lhs_at_anchor = sum(c * a for c, a in zip(coeffs, anchor))
        if kind == "le":
            rhs = lhs_at_anchor + slack
        elif kind == "ge":
            rhs = lhs_at_anchor - slack
        else:
            rhs = lhs_at_anchor
        constraints.append((coeffs, kind, rhs))
    objective = [draw(_coef) for _ in range(n)]
    return n, constraints, objective


def _build(spec):
    n, constraints, objective = spec
    model = Model("prop")
    xs = [model.add_variable(f"x{i}", lb=0.0, ub=10.0) for i in range(n)]
    for coeffs, kind, rhs in constraints:
        expr = sum((c * x for c, x in zip(coeffs[1:], xs[1:])), coeffs[0] * xs[0])
        if kind == "le":
            model.add_constraint(expr <= rhs)
        elif kind == "ge":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr == rhs)
    model.minimize(
        sum((c * x for c, x in zip(objective[1:], xs[1:])), objective[0] * xs[0])
    )
    return model


def _solve(model, solve):
    try:
        return ("optimal", solve(model).objective)
    except InfeasibleError:
        return ("infeasible", None)
    except UnboundedError:  # pragma: no cover - box bounds prevent this
        return ("unbounded", None)


@settings(max_examples=60, deadline=None)
@given(lp_specs())
def test_backends_agree_on_random_lps(spec):
    status_a, obj_a = _solve(_build(spec), solve_lp)
    status_b, obj_b = _solve(_build(spec), solve_simplex)
    assert status_a == status_b
    if status_a == "optimal":
        assert obj_a == pytest.approx(obj_b, abs=1e-6, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(lp_specs())
def test_highs_solution_is_feasible(spec):
    model = _build(spec)
    try:
        solution = model.solve()
    except InfeasibleError:
        return
    for con in model.constraints:
        value = solution.value(con.expr)
        if con.sense is Sense.LE:
            assert value <= 1e-6
        elif con.sense is Sense.GE:
            assert value >= -1e-6
        else:
            assert value == pytest.approx(0.0, abs=1e-6)
    for var in model.variables:
        v = solution.value(var)
        assert var.lb - 1e-9 <= v <= var.ub + 1e-9


@settings(max_examples=40, deadline=None)
@given(lp_specs())
def test_anchored_instances_with_only_slack_constraints_feasible(spec):
    """If every constraint is an inequality (has slack toward the
    anchor), the anchor point itself is feasible, so solve must not
    report infeasibility."""
    n, constraints, objective = spec
    if any(kind == "eq" for _c, kind, _r in constraints):
        return
    model = _build((n, constraints, objective))
    solution = model.solve()
    assert solution is not None
