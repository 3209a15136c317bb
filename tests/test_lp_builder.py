"""The LP builder against the object model it replaced, byte for byte.

Each random LP is stated twice: on :class:`repro.lp.LPBuilder`, and on
the :class:`tests.lp_model.Model` oracle lowered by its vectorized
lowering.  The two must hand HiGHS the same arrays (the digest of
:mod:`tests.test_flow_lp_pins`): ``-0.0`` right-hand sides, GE rows
negated into ``a_ub``, maximization, zero coefficients dropped, free
columns, and constant rows that hold dropped.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import InfeasibleError, ModelError
from repro.lp import EQ, GE, LE, LPBuilder
from tests.lp_model import LinExpr, Model, compile_model
from tests.test_flow_lp_pins import _digest

COEFFICIENTS = (-2.5, -1.0, 0.0, 1.0, 3.75)
RIGHT_HAND_SIDES = (0.0, -0.0, 0.0, 4.5, -3.25)


def _random_lp(seed: int):
    """One random LP, as ``(builder, model)``."""
    rnd = random.Random(seed)
    lp, model = LPBuilder(f"rand{seed}"), Model(f"rand{seed}")
    n = rnd.randint(2, 9)
    columns, variables = [], []
    for i in range(n):
        lb = rnd.choice([0.0, None, rnd.uniform(-5.0, 0.0)])
        ub = rnd.choice([None, rnd.uniform(1.0, 10.0)])
        columns.append(lp.column(i, lb=lb, ub=ub))
        variables.append(model.add_variable(f"x{i}", lb=lb, ub=ub))
    for _ in range(rnd.randint(1, 10)):
        picked = rnd.sample(range(n), rnd.randint(1, n))
        vals = [rnd.choice(COEFFICIENTS) for _ in picked]
        sense = rnd.choice((LE, GE, EQ))
        if not any(vals):
            rhs = 0.0  # a constant row that holds: both drop it
        elif rnd.random() < 0.5:
            rhs = rnd.choice(RIGHT_HAND_SIDES)
        else:
            rhs = rnd.uniform(-10.0, 10.0)
        lp.row([columns[i] for i in picked], vals, sense, rhs)
        expr = LinExpr.from_terms(zip(vals, (variables[i] for i in picked)))
        model.add_constraint(
            expr <= rhs if sense == LE else expr >= rhs if sense == GE else expr == rhs
        )
    costs = [rnd.choice(COEFFICIENTS) for _ in range(n)]
    constant = rnd.choice([0.0, rnd.uniform(-2.0, 2.0)])
    maximize = bool(seed % 2)
    lp.objective(columns, costs, constant, maximize=maximize)
    objective = LinExpr.from_terms(zip(costs, variables), constant=constant)
    model.maximize(objective) if maximize else model.minimize(objective)
    return lp, model


@pytest.mark.parametrize("seed", range(30))
def test_builder_writes_the_arrays_the_lowering_wrote(seed):
    lp, model = _random_lp(seed)
    built, lowered = lp.compile(), compile_model(model)
    assert built.name == lowered.name
    assert _digest(built) == _digest(lowered)


def test_a_constant_row_is_dropped_if_it_holds_and_infeasible_if_not():
    lp = LPBuilder("constant")
    x = lp.column("x")
    assert lp.row([x], [0.0], LE, 0.0) is None
    assert lp.row([], [], GE, -1.0) is None
    assert lp.row([x], [1.0], EQ, 2.0) == 0
    with pytest.raises(InfeasibleError, match="constant"):
        lp.row([], [], EQ, 5.0)
    assert lp.compile().num_constraints == 1


def test_columns_are_keys():
    lp = LPBuilder("keys")
    assert lp.column("a") == 0 and lp.column(("b", 1), lb=None) == 1
    assert lp.columns == {"a": 0, ("b", 1): 1}
    with pytest.raises(ModelError, match="exists"):
        lp.column("a")
    with pytest.raises(ModelError, match="empty domain"):
        lp.column("c", lb=2.0, ub=1.0)
