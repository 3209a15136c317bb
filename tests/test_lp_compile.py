"""Unit tests for lowering a Model to sparse standard form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.lp import row_matrix

from tests.lp_model import Model, compile_model
from tests.lp_reference import as_scipy


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
    assert as_scipy(problem.a_ub).toarray().tolist() == [[2.0, 3.0]]
    assert problem.b_ub.tolist() == [12.0]


def test_ge_row_is_negated():
    m = Model()
    x = m.add_variable("x")
    m.add_constraint(x >= 4)
    problem = compile_model(m)
    assert as_scipy(problem.a_ub).toarray().tolist() == [[-1.0]]
    assert problem.b_ub.tolist() == [-4.0]


def test_eq_rows_separate():
    m = Model()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.add_constraint(x + y == 5)
    m.add_constraint(x <= 2)
    problem = compile_model(m)
    assert problem.num_equalities == 1
    assert problem.num_inequalities == 1
    assert as_scipy(problem.a_eq).toarray().tolist() == [[1.0, 1.0]]
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


#: Sums of these are exact in any order, so duplicates in rows scipy
#: sorts unstably (more than 16 entries) still sum to the same bits.
EXACT = st.one_of(st.integers(-4, 4).map(lambda v: v / 4), st.just(-0.0))


@st.composite
def _coo(draw, values, most=40):
    # Past 65,536 columns the canonicaliser sorts 64-bit keys instead of 16-bit ones.
    m, n = draw(st.integers(0, 5)), draw(st.one_of(st.integers(0, 5), st.just(70_000)))
    count = draw(st.integers(0, most if m and n else 0))
    cells = st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(n - 1, 0)))
    entries = draw(st.lists(st.tuples(cells, values), min_size=count, max_size=count))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    rows = np.array([r for (r, _), _ in entries], dtype=dtype)
    cols = np.array([c for (_, c), _ in entries], dtype=dtype)
    data = np.array([v for _, v in entries], dtype=float)
    shape = draw(st.sampled_from([(m, n), (np.int64(m), np.int32(n))]))
    return rows, cols, data, shape


def _assert_is_scipys_csr(rows, cols, data, shape):
    got = row_matrix(rows, cols, data, shape)
    want = sparse.csr_matrix((data, (rows, cols)), shape=shape)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()  # signed zeros included
    assert got.nnz == want.nnz
    # A numpy int would change repr(shape), and with it every pin digest.
    assert got.shape == want.shape and all(type(side) is int for side in got.shape)
    coo = want.tocoo()
    for mine, theirs in zip(got.coo(), (coo.row, coo.col, coo.data)):
        np.testing.assert_array_equal(mine, theirs)


@settings(max_examples=60, deadline=None)
@given(_coo(EXACT))
def test_row_matrix_is_scipys_csr(coo):
    """Unsorted input, duplicates (summing to zero too), written zeros,
    empty rows, 0 x n and m x 0, int32 and int64 indices, wide rows."""
    _assert_is_scipys_csr(*coo)


@settings(max_examples=30, deadline=None)
@given(_coo(st.floats(-1e6, 1e6, allow_nan=False), most=16))
def test_row_matrix_sums_duplicates_in_scipys_order(coo):
    """Any floats: duplicates sum left to right in input order, as scipy's
    (stable, at up to 16 entries a row) sort leaves them."""
    _assert_is_scipys_csr(*coo)


def test_row_matrix_keeps_a_sum_of_zero_and_drops_nothing():
    matrix = row_matrix([1, 0, 1, 1], [2, 0, 2, 0], [1.0, 0.0, -1.0, 3.0], (3, 3))
    assert matrix.indptr.tolist() == [0, 1, 3, 3]
    assert matrix.indices.tolist() == [0, 0, 2]
    assert matrix.data.tolist() == [0.0, 3.0, 0.0]
