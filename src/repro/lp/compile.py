"""The LP in sparse standard form, and the builder that writes it.

The compiled form is what the HiGHS backend hands HiGHS, ``a_ub`` rows
stacked over ``a_eq`` rows, each a :class:`RowMatrix` of numpy arrays:

    minimize    c @ x + c0
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                bounds[i][0] <= x[i] <= bounds[i][1]

Maximization is handled by negating ``c`` and flipping the sign of the
reported objective, so backends only ever minimize.

:class:`LPBuilder` states a problem column by column and row by row:
each row's coefficients go to flat COO buffers with C-speed
``list.extend`` calls, and GE rows are negated into ``a_ub`` as one
vectorized multiply.  The Postcard LP (:mod:`repro.core.formulation`)
writes the arrays itself.  ``tests/lp_model.py`` keeps the
operator-algebra object model and its lowering as the oracle the builder
is pinned to, byte for byte (``tests/test_lp_builder.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InfeasibleError, ModelError, SolverError, UnboundedError
from repro.lp.result import Solution, SolveStatus
from repro.obs import registry as obs

#: Row senses: ``row(cols, vals, LE, rhs)`` states ``vals . x[cols] <= rhs``.
LE, GE, EQ = "<=", ">=", "=="
IPM_COLUMNS = 20000  #: above this many columns the backend asks for interior point


@dataclass(frozen=True)
class RowMatrix:
    """A sparse matrix by rows (CSR) with ``nnz`` entries: row ``i``'s columns,
    ascending, and values are ``indices`` and ``data`` at ``indptr[i]:indptr[i + 1]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]
    nnz: int

    def coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)``, one entry each, in row-major order."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return rows, self.indices, self.data


def row_matrix(rows, cols, values, shape: Tuple[int, int]) -> RowMatrix:
    """What ``scipy.sparse.csr_matrix((values, (rows, cols)), shape)`` holds:
    duplicates summed in input order, zeros kept, ``shape`` in Python ints."""
    m, n = int(shape[0]), int(shape[1])
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    narrow = np.uint16 if max(m, n) <= 1 << 16 else np.int64  # radix-sorted by numpy
    order = np.argsort(cols.astype(narrow), kind="stable")
    order = order[np.argsort(rows[order].astype(narrow), kind="stable")]
    rows, cols, values = rows[order], cols[order], np.asarray(values, dtype=float)[order]
    key = rows * n + cols
    if (key[1:] == key[:-1]).any():  # a cell's duplicates follow it: sum them in order
        first = np.flatnonzero(np.diff(key, prepend=-1))
        summed, runs = values[first], np.diff(first, append=len(key))
        for k in range(1, runs.max()):
            more = runs > k
            summed[more] += values[first[more] + k]
        rows, cols, values = rows[first], cols[first], summed
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return RowMatrix(indptr, cols.astype(np.int32), values, (m, n), len(values))


@dataclass
class CompiledProblem:
    """Sparse standard-form LP data, as HiGHS is handed it."""

    c: np.ndarray
    c0: float
    a_ub: RowMatrix
    b_ub: np.ndarray
    a_eq: RowMatrix
    b_eq: np.ndarray
    #: Per-variable (lb, ub) as an ``(n, 2)`` array (the backend also
    #: reads a list of tuples, ``None`` meaning unbounded).
    bounds: "np.ndarray | List[Tuple[float, float]]"
    maximize: bool
    #: One entry per stated row, in order: ("ub"|"eq", row, sign).
    #: ``sign`` is -1 for GE rows (negated into LE rows), so a row's
    #: dual as written is ``sign * marginal`` of the compiled row.
    row_map: List[Tuple[str, int, float]] = field(default_factory=list)
    name: str = "compiled"

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

    def duals(self, solution: Solution) -> np.ndarray:
        """Each stated row's shadow price d(objective) / d(rhs), indexed
        by the handle :meth:`LPBuilder.row` returned.

        The sign follows the row as written: relaxing ``vals . x <= b``
        by one unit changes a minimization objective by its dual (<= 0),
        and tightening ``vals . x >= b`` likewise.  A GE row was negated
        at compile time and a maximization's costs were, so those flip.
        """
        offset = {"ub": 0, "eq": self.num_inequalities}
        index = [offset[kind] + row for kind, row, _ in self.row_map]
        sign = np.array([sign for *_, sign in self.row_map])
        if self.maximize:
            sign = -sign
        return sign * solution.row_duals[index]


def compile_model(problem: CompiledProblem) -> CompiledProblem:
    """The solve's hand-off: the problem passes through as it is, under
    the ``lp.compile`` span and the ``lp.cols`` / ``lp.rows`` /
    ``lp.nonzeros`` counters."""
    with obs.span("lp.compile", model=problem.name, mode="compiled"):
        pass
    obs.counter("lp.cols", problem.num_variables)
    obs.counter("lp.rows", problem.num_constraints)
    obs.counter("lp.nonzeros", int(problem.a_ub.nnz + problem.a_eq.nnz))
    return problem


def load_solver():
    """:class:`~repro.lp.backends.highs.HighsBackend`, imported by the first
    solve (it loads HiGHS's extension, not ``scipy.optimize``); a caller that
    times its solves, the hybrid's watchdog, calls this first, off the clock."""
    from repro.lp.backends.highs import HighsBackend  # it imports this module

    return HighsBackend


def solve_lp(problem: CompiledProblem, **options) -> Solution:
    """Solve a compiled problem with HiGHS (``options`` are HiGHS's own,
    see :mod:`repro.lp.backends.highs`).

    Raises :class:`InfeasibleError` / :class:`UnboundedError` /
    :class:`SolverError` on failure, so callers can rely on the
    returned solution being optimal.
    """
    solution = load_solver()().solve(problem, **options)
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(f"model {problem.name!r} is infeasible")
    if solution.status is SolveStatus.UNBOUNDED:
        raise UnboundedError(f"model {problem.name!r} is unbounded")
    if solution.status is not SolveStatus.OPTIMAL:
        reason = f": {solution.message}" if solution.message else ""
        raise SolverError(
            f"solver {solution.solver!r} failed on model {problem.name!r}{reason}"
        )
    return solution


class LPBuilder:
    """An LP stated incrementally, emitted as a :class:`CompiledProblem`.

    A column is a key mapped to an index, with bounds and a cost; read
    its value as ``solution.x[index]``.  A row is appended with a sense
    and a right-hand side and returns a handle into
    :meth:`CompiledProblem.duals`.  The objective is :attr:`cost`, a
    :attr:`constant` and the :attr:`maximize` flag.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.columns: Dict[Hashable, int] = {}
        self.lb: List[float] = []
        self.ub: List[float] = []
        #: Objective coefficient per column.
        self.cost: List[float] = []
        self.constant = 0.0
        self.maximize = False
        self.row_map: List[Tuple[str, int, float]] = []
        self._ub_cols: List[int] = []
        self._ub_vals: List[float] = []
        self._ub_counts: List[int] = []
        self._ub_flips: List[float] = []
        self._b_ub: List[float] = []
        self._eq_cols: List[int] = []
        self._eq_vals: List[float] = []
        self._eq_counts: List[int] = []
        self._b_eq: List[float] = []

    def column(
        self, key: Hashable, lb: Optional[float] = 0.0, ub: Optional[float] = None,
        cost: float = 0.0,
    ) -> int:
        """A new column ``lb <= x <= ub`` (``None``: unbounded); its index."""
        if key in self.columns:
            raise ModelError(f"{self.name}: column {key!r} exists")
        lo = -np.inf if lb is None else float(lb)
        hi = np.inf if ub is None else float(ub)
        if lo > hi:
            raise ModelError(f"{self.name}: column {key!r} has empty domain [{lo}, {hi}]")
        index = self.columns[key] = len(self.lb)
        self.lb.append(lo)
        self.ub.append(hi)
        self.cost.append(cost)
        return index

    def objective(
        self, cols: Sequence[int], vals: Sequence[float], constant: float = 0.0,
        maximize: bool = False,
    ) -> None:
        """Add ``vals`` to the columns' costs; set the constant and sense."""
        cost = self.cost
        for col, val in zip(cols, vals):
            cost[col] += val
        self.constant = constant
        self.maximize = maximize

    def row(
        self, cols: Sequence[int], vals: Union[float, Sequence[float]], sense: str,
        rhs: float = 0.0,
    ) -> Optional[int]:
        """Append ``vals . x[cols] (sense) rhs`` (one ``vals`` for all).

        Returns the row's handle.  A row with no nonzero coefficient is
        dropped when it holds (handle ``None``) and raises
        :class:`InfeasibleError` when it does not.
        """
        if isinstance(vals, (int, float)):
            vals = [vals] * len(cols)
        # The lowering's constant, moved left: ``-0.0`` right-hand sides
        # and the tolerance on constant rows come from it.
        constant = 0.0 - rhs
        if not any(vals):
            holds = {LE: constant <= 1e-12, GE: constant >= -1e-12,
                     EQ: abs(constant) <= 1e-12}
            if holds[sense]:
                return None
            raise InfeasibleError(
                f"{self.name}: a row without columns is false: 0 {sense} {rhs:g}"
            )
        if sense == EQ:
            self.row_map.append(("eq", len(self._b_eq), 1.0))
            self._eq_cols.extend(cols)
            self._eq_vals.extend(vals)
            self._eq_counts.append(len(cols))
            self._b_eq.append(-constant)
        else:
            flip = -1.0 if sense == GE else 1.0
            self.row_map.append(("ub", len(self._b_ub), flip))
            self._ub_cols.extend(cols)
            self._ub_vals.extend(vals)
            self._ub_counts.append(len(cols))
            self._ub_flips.append(flip)
            self._b_ub.append(flip * -constant)
        return len(self.row_map) - 1

    def compile(self) -> CompiledProblem:
        n = len(self.lb)
        c = np.array(self.cost, dtype=float)
        return CompiledProblem(
            c=-c if self.maximize else c,
            c0=self.constant,
            a_ub=_coo_from_buffers(self._ub_cols, self._ub_vals, self._ub_counts,
                                   self._ub_flips, len(self._b_ub), n),
            b_ub=np.asarray(self._b_ub, dtype=float),
            a_eq=_coo_from_buffers(self._eq_cols, self._eq_vals, self._eq_counts,
                                   None, len(self._b_eq), n),
            b_eq=np.asarray(self._b_eq, dtype=float),
            bounds=np.column_stack((self.lb, self.ub)).reshape(n, 2),
            maximize=self.maximize,
            row_map=list(self.row_map),
            name=self.name,
        )


def _coo_from_buffers(
    cols: List[int],
    vals: List[float],
    counts: List[int],
    flips: Optional[List[float]],
    num_rows: int,
    num_cols: int,
) -> RowMatrix:
    """The matrix of per-constraint flattened coefficient buffers.

    ``counts[i]`` entries of ``cols``/``vals`` belong to row ``i``;
    ``flips`` optionally scales each row's entries (the GE negation).
    Explicit zeros are dropped (a flipped zero is still zero).
    """
    rows = np.repeat(np.arange(num_rows), np.asarray(counts, dtype=np.intp))
    data = np.asarray(vals, dtype=float)
    if flips is not None and len(flips):
        data = data * np.asarray(flips, dtype=float)[rows]
    keep = data != 0.0
    return row_matrix(rows[keep], np.asarray(cols, dtype=np.intp)[keep], data[keep],
                      (num_rows, num_cols))
