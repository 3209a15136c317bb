"""Compile a Model to sparse standard form.

The compiled form is what the HiGHS backend hands HiGHS, ``a_ub`` rows
stacked over ``a_eq`` rows (``repro.lp.backends.highs``):

    minimize    c @ x + c0
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                bounds[i][0] <= x[i] <= bounds[i][1]

Maximization is handled by negating ``c`` and flipping the sign of the
reported objective, so backends only ever minimize.

The lowering accumulates every constraint's coefficient arrays into
flat COO buffers with C-speed ``list.extend`` calls and applies GE sign
flips as one vectorized multiply.  ``tests/lp_reference.py`` keeps the
per-coefficient loop it replaced; the two give bit-identical matrices
(``tests/test_compile_equivalence.py``).  A problem assembled directly
as arrays (the Postcard LP) skips lowering altogether.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.lp.constraint import Sense
from repro.lp.model import Model
from repro.obs import registry as obs


def _bounds_array(variables) -> np.ndarray:
    """Variable bounds as an ``(n, 2)`` float array: two column slices
    for the backend, where per-variable tuples cost a conversion pass."""
    n = len(variables)
    bounds = np.empty((n, 2), dtype=float)
    bounds[:, 0] = np.fromiter((v.lb for v in variables), dtype=float, count=n)
    bounds[:, 1] = np.fromiter((v.ub for v in variables), dtype=float, count=n)
    return bounds


@dataclass
class CompiledProblem:
    """Sparse standard-form LP data extracted from a :class:`Model`."""

    c: np.ndarray
    c0: float
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    #: Per-variable (lb, ub) as an ``(n, 2)`` array (the backend also
    #: reads a list of tuples, ``None`` meaning unbounded).
    bounds: "np.ndarray | List[Tuple[float, float]]"
    maximize: bool
    #: One entry per model constraint, in order: ("ub"|"eq", row, sign).
    #: ``sign`` is -1 for GE constraints (negated into LE rows), so a
    #: model-level dual is ``sign * marginal`` of the compiled row.
    #: Defaults to an empty list so an un-populated problem degrades to
    #: "no dual information" instead of crashing dual extraction.
    row_map: List[Tuple[str, int, float]] = field(default_factory=list)
    #: Name and ``_id`` of the :class:`Model` this was lowered from; a
    #: problem assembled directly as arrays keeps these.
    name: str = "compiled"
    model_id: int = -1

    @property
    def num_variables(self) -> int:
        return self.c.shape[0]

    @property
    def num_inequalities(self) -> int:
        return self.a_ub.shape[0]

    @property
    def num_equalities(self) -> int:
        return self.a_eq.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.num_inequalities + self.num_equalities


def compile_model(model: Union[Model, CompiledProblem]) -> CompiledProblem:
    """Lower a :class:`Model` into :class:`CompiledProblem` matrices.

    ``GE`` constraints are negated into ``LE`` rows; constraint constants
    move to the right-hand side.  An already compiled problem is
    returned as it is, under the same span and counters.
    """
    compiled = isinstance(model, CompiledProblem)
    with obs.span("lp.compile", model=model.name,
                  mode="compiled" if compiled else "vectorized"):
        if compiled:
            problem = model
        else:
            problem = _compile_vectorized(model)
            problem.name, problem.model_id = model.name, model._id
    obs.counter("lp.cols", problem.num_variables)
    obs.counter("lp.rows", problem.num_constraints)
    obs.counter("lp.nonzeros", int(problem.a_ub.nnz + problem.a_eq.nnz))
    return problem


def _objective_vector(model: Model) -> Tuple[np.ndarray, float]:
    c = np.zeros(model.num_variables)
    for idx, coef in model.objective.coeffs.items():
        c[idx] = coef
    if not model.sense_minimize:
        c = -c
    return c, model.objective.constant


def _compile_vectorized(model: Model) -> CompiledProblem:
    """COO assembly from pre-accumulated flat buffers.

    One Python-level iteration per constraint; per-coefficient work is
    ``dict.keys()``/``dict.values()`` handed to ``list.extend`` (all C),
    then row expansion, sign flips and zero filtering run as numpy
    array operations.
    """
    n = model.num_variables
    c, c0 = _objective_vector(model)

    ub_cols: List[int] = []
    ub_vals: List[float] = []
    ub_counts: List[int] = []
    ub_flips: List[float] = []
    b_ub: List[float] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    eq_counts: List[int] = []
    b_eq: List[float] = []

    row_map: List[Tuple[str, int, float]] = []
    for con in model.constraints:
        expr = con.expr
        coeffs = expr.coeffs
        if con.sense is Sense.EQ:
            row_map.append(("eq", len(b_eq), 1.0))
            eq_cols.extend(coeffs.keys())
            eq_vals.extend(coeffs.values())
            eq_counts.append(len(coeffs))
            b_eq.append(-expr.constant)
        else:
            flip = -1.0 if con.sense is Sense.GE else 1.0
            row_map.append(("ub", len(b_ub), flip))
            ub_cols.extend(coeffs.keys())
            ub_vals.extend(coeffs.values())
            ub_counts.append(len(coeffs))
            ub_flips.append(flip)
            b_ub.append(flip * -expr.constant)

    a_ub = _coo_from_buffers(ub_cols, ub_vals, ub_counts, ub_flips, len(b_ub), n)
    a_eq = _coo_from_buffers(eq_cols, eq_vals, eq_counts, None, len(b_eq), n)

    bounds = _bounds_array(model.variables)

    return CompiledProblem(
        c=c,
        c0=c0,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=a_eq,
        b_eq=np.asarray(b_eq, dtype=float),
        bounds=bounds,
        maximize=not model.sense_minimize,
        row_map=row_map,
    )


def _coo_from_buffers(
    cols: List[int],
    vals: List[float],
    counts: List[int],
    flips: Optional[List[float]],
    num_rows: int,
    num_cols: int,
) -> sparse.csr_matrix:
    """CSR matrix from per-constraint flattened coefficient buffers.

    ``counts[i]`` entries of ``cols``/``vals`` belong to row ``i``;
    ``flips`` optionally scales each row's entries (the GE negation).
    Explicit zeros are dropped (a flipped zero is still zero).
    """
    counts_arr = np.asarray(counts, dtype=np.intp)
    cols_arr = np.asarray(cols, dtype=np.intp)
    data = np.asarray(vals, dtype=float)
    if flips is not None and len(flips):
        data = data * np.repeat(np.asarray(flips, dtype=float), counts_arr)
    keep = data != 0.0
    if keep.all():
        # The buffers are already row-contiguous, so the CSR index
        # pointer is just the running total of per-row counts — no COO
        # row expansion, no lexsort.  ``sum_duplicates()`` canonicalizes
        # (sorted indices, merged duplicates), yielding the exact matrix
        # the COO round-trip would.
        indptr = np.empty(num_rows + 1, dtype=np.intp)
        indptr[0] = 0
        np.cumsum(counts_arr, out=indptr[1:])
        matrix = sparse.csr_matrix(
            (data, cols_arr, indptr), shape=(num_rows, num_cols), dtype=float
        )
        matrix.sum_duplicates()
        return matrix
    # Explicit zeros present: filtering invalidates the per-row counts,
    # so fall back to the COO round-trip.
    rows = np.repeat(np.arange(num_rows, dtype=np.intp), counts_arr)
    rows = rows[keep]
    cols_arr = cols_arr[keep]
    data = data[keep]
    return sparse.csr_matrix(
        (data, (rows, cols_arr)), shape=(num_rows, num_cols), dtype=float
    )
