"""The object model the LP builders replaced, kept as a test oracle.

``Model`` / ``LinExpr`` / ``Variable`` / ``Constraint`` / ``Sense``
state an LP as operator algebra over named variables, and
:func:`compile_model` lowers a :class:`Model` to the
:class:`~repro.lp.CompiledProblem` HiGHS reads (a compiled problem
passes through).  :func:`solve_lp` solves either; for a :class:`Model`
it returns a :class:`ModelSolution`, which reads values by variable or
expression and duals by constraint (``id(constraint)``), from the
solver's row duals through the lowering's ``row_map``.

``tests/test_lp_builder.py`` pins :class:`repro.lp.LPBuilder` to this
lowering byte for byte, ``tests/lp_reference.py`` writes the reference
Postcard assembler on it, and the toolkit tests (``test_lp_expr``,
``test_lp_model``, ``test_lp_compile``, ``test_lp_duals`` and others)
cover it.
"""

from __future__ import annotations

import enum
import itertools
import numbers
from functools import partial
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ModelError
from repro.lp import solve_lp as solve_compiled
from repro.lp.compile import CompiledProblem, _coo_from_buffers
from repro.lp.result import Solution
from repro.obs import registry as obs

Scalar = Union[int, float]
ExprLike = Union["Variable", "LinExpr", Scalar]


class Variable:
    """A decision variable belonging to one :class:`~repro.lp.Model`.

    Variables compare by identity; their :attr:`index` is the column in
    the compiled problem.  Do not instantiate directly — use
    :meth:`Model.add_variable`.
    """

    __slots__ = ("name", "index", "lb", "ub", "_model_id")

    def __init__(self, name: str, index: int, lb: float, ub: float, model_id: int):
        self.name = name
        self.index = index
        self.lb = lb
        self.ub = ub
        self._model_id = model_id

    def as_expr(self) -> "LinExpr":
        """This variable as a one-term linear expression."""
        return LinExpr({self.index: 1.0}, 0.0, self._model_id)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ExprLike) -> "LinExpr":
        return self.as_expr() + other

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self.as_expr() + other

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self.as_expr() - other

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (-self.as_expr()) + other

    def __mul__(self, other: Scalar) -> "LinExpr":
        return self.as_expr() * other

    def __rmul__(self, other: Scalar) -> "LinExpr":
        return self.as_expr() * other

    def __truediv__(self, other: Scalar) -> "LinExpr":
        return self.as_expr() / other

    def __neg__(self) -> "LinExpr":
        return -self.as_expr()

    def __pos__(self) -> "LinExpr":
        return self.as_expr()

    # -- comparisons build constraints --------------------------------

    def __le__(self, other: ExprLike):
        return self.as_expr() <= other

    def __ge__(self, other: ExprLike):
        return self.as_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr)) or isinstance(other, numbers.Real):
            return self.as_expr() == other
        return NotImplemented

    def __hash__(self):
        return id(self)

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, index={self.index})"


class LinExpr:
    """A sparse affine expression ``sum(coef[i] * x_i) + constant``."""

    __slots__ = ("coeffs", "constant", "_model_id")

    def __init__(
        self,
        coeffs: Mapping[int, float] = (),
        constant: float = 0.0,
        model_id: int = -1,
    ):
        self.coeffs: Dict[int, float] = dict(coeffs)
        self.constant = float(constant)
        self._model_id = model_id

    # -- construction helpers -----------------------------------------

    @staticmethod
    def from_terms(terms: Iterable[Tuple[Scalar, "Variable"]], constant: float = 0.0) -> "LinExpr":
        """Build an expression from ``(coefficient, variable)`` pairs.

        Much faster than repeated ``+`` when summing thousands of terms.
        """
        coeffs: Dict[int, float] = {}
        model_id = -1
        for coef, var in terms:
            if model_id == -1:
                model_id = var._model_id
            elif var._model_id != model_id:
                raise ModelError("cannot mix variables from different models")
            coeffs[var.index] = coeffs.get(var.index, 0.0) + float(coef)
        return LinExpr(coeffs, constant, model_id)

    @staticmethod
    def sum(items: Iterable[ExprLike]) -> "LinExpr":
        """Sum variables/expressions/scalars efficiently."""
        coeffs: Dict[int, float] = {}
        constant = 0.0
        model_id = -1
        for item in items:
            if isinstance(item, Variable):
                if model_id == -1:
                    model_id = item._model_id
                elif item._model_id != model_id:
                    raise ModelError("cannot mix variables from different models")
                coeffs[item.index] = coeffs.get(item.index, 0.0) + 1.0
            elif isinstance(item, LinExpr):
                if item._model_id != -1:
                    if model_id == -1:
                        model_id = item._model_id
                    elif item._model_id != model_id:
                        raise ModelError("cannot mix expressions from different models")
                for idx, coef in item.coeffs.items():
                    coeffs[idx] = coeffs.get(idx, 0.0) + coef
                constant += item.constant
            elif isinstance(item, numbers.Real):
                constant += float(item)
            else:
                raise TypeError(f"cannot sum object of type {type(item).__name__}")
        return LinExpr(coeffs, constant, model_id)

    def _merge_model_id(self, other_id: int) -> int:
        if self._model_id == -1:
            return other_id
        if other_id == -1:
            return self._model_id
        if self._model_id != other_id:
            raise ModelError("cannot mix expressions from different models")
        return self._model_id

    def _coerce(self, other: ExprLike) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other.as_expr()
        if isinstance(other, numbers.Real):
            return LinExpr({}, float(other), -1)
        raise TypeError(f"cannot combine LinExpr with {type(other).__name__}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: ExprLike) -> "LinExpr":
        other = self._coerce(other)
        model_id = self._merge_model_id(other._model_id)
        coeffs = dict(self.coeffs)
        for idx, coef in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + coef
        return LinExpr(coeffs, self.constant + other.constant, model_id)

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (-self).__add__(other)

    def __neg__(self) -> "LinExpr":
        return LinExpr(
            {idx: -coef for idx, coef in self.coeffs.items()},
            -self.constant,
            self._model_id,
        )

    def __pos__(self) -> "LinExpr":
        return self

    def __mul__(self, other: Scalar) -> "LinExpr":
        if not isinstance(other, numbers.Real):
            raise TypeError("LinExpr can only be multiplied by a scalar")
        scale = float(other)
        return LinExpr(
            {idx: coef * scale for idx, coef in self.coeffs.items()},
            self.constant * scale,
            self._model_id,
        )

    def __rmul__(self, other: Scalar) -> "LinExpr":
        return self.__mul__(other)

    def __truediv__(self, other: Scalar) -> "LinExpr":
        if not isinstance(other, numbers.Real):
            raise TypeError("LinExpr can only be divided by a scalar")
        return self.__mul__(1.0 / float(other))

    # -- comparisons ----------------------------------------------------

    def __le__(self, other: ExprLike):
        return Constraint(self - self._coerce(other), Sense.LE)

    def __ge__(self, other: ExprLike):
        return Constraint(self - self._coerce(other), Sense.GE)

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr)) or isinstance(other, numbers.Real):
            return Constraint(self - self._coerce(other), Sense.EQ)
        return NotImplemented

    def __hash__(self):
        return id(self)

    # -- utilities -------------------------------------------------------

    def is_constant(self) -> bool:
        """True when the expression references no variable."""
        return all(coef == 0.0 for coef in self.coeffs.values())

    def __repr__(self) -> str:
        terms = " + ".join(f"{coef:g}*x{idx}" for idx, coef in sorted(self.coeffs.items()))
        if not terms:
            return f"LinExpr({self.constant:g})"
        if self.constant:
            return f"LinExpr({terms} + {self.constant:g})"
        return f"LinExpr({terms})"


class Sense(enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A linear constraint in normalized form ``expr (sense) 0``.

    ``expr`` holds all variable terms and the constant moved to the left
    side, so the constraint reads ``expr.coeffs . x + expr.constant <= 0``
    (or ``>=``/``==``).  Constraints are created by comparison operators
    on :class:`~repro.lp.expr.LinExpr` / :class:`~repro.lp.expr.Variable`
    and registered with :meth:`repro.lp.Model.add_constraint`.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: Sense, name: str = ""):
        self.expr = expr
        self.sense = sense
        self.name = name

    @property
    def rhs(self) -> float:
        """Right-hand side when the constant is moved back to the right."""
        return -self.expr.constant

    def __bool__(self) -> bool:
        # Guards against `if x == y:` silently truthy-testing a Constraint.
        raise TypeError(
            "a Constraint has no truth value; pass it to Model.add_constraint()"
        )

    def __repr__(self) -> str:
        return f"Constraint({self.expr!r} {self.sense.value} 0, name={self.name!r})"


_model_counter = itertools.count()


class Model:
    """A linear program under construction.

    Build a model by adding variables and constraints, set the objective
    with :meth:`minimize` or :meth:`maximize`, then call :meth:`solve`.

    The :meth:`add_max_epigraph` helper implements the standard epigraph
    transform used by the Postcard objective: it introduces an auxiliary
    variable ``z`` with ``z >= e`` for every expression ``e``, so that
    minimizing a positively-weighted sum of such ``z`` values minimizes
    the pointwise maximum.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._id = next(_model_counter)
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr({}, 0.0, self._id)
        self.sense_minimize: bool = True

    # -- construction ---------------------------------------------------

    def add_variable(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: Optional[float] = None,
    ) -> Variable:
        """Create a new decision variable with bounds ``[lb, ub]``.

        ``ub=None`` means unbounded above; ``lb=None`` means unbounded
        below.  Defaults to the LP-friendly ``x >= 0``.
        """
        index = len(self.variables)
        lo = float("-inf") if lb is None else float(lb)
        hi = float("inf") if ub is None else float(ub)
        if lo > hi:
            raise ModelError(f"variable {name or index} has empty domain [{lo}, {hi}]")
        var = Variable(name or f"x{index}", index, lo, hi, self._id)
        self.variables.append(var)
        return var

    def add_variables(
        self, count: int, prefix: str = "x", lb: float = 0.0, ub: Optional[float] = None
    ) -> List[Variable]:
        """Create ``count`` variables named ``{prefix}[0..count)``."""
        return [self.add_variable(f"{prefix}[{i}]", lb=lb, ub=ub) for i in range(count)]

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a comparison of expressions, "
                f"got {type(constraint).__name__}"
            )
        if constraint.expr._model_id not in (-1, self._id):
            raise ModelError("constraint references variables from a different model")
        if constraint.expr.is_constant():
            # A constant constraint is either trivially true (drop it) or
            # a modeling bug (raise early rather than let the solver
            # report a confusing infeasibility).
            value, sense = constraint.expr.constant, constraint.sense
            ok = (
                (sense is Sense.LE and value <= 1e-12)
                or (sense is Sense.GE and value >= -1e-12)
                or (sense is Sense.EQ and abs(value) <= 1e-12)
            )
            if not ok:
                raise ModelError(
                    f"constraint {name or constraint.name!r} is constant and false: "
                    f"{value:g} {sense.value} 0"
                )
            return constraint
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint], prefix: str = "") -> None:
        """Register many constraints, optionally naming them by index."""
        for i, con in enumerate(constraints):
            self.add_constraint(con, name=f"{prefix}[{i}]" if prefix else "")

    def add_max_epigraph(
        self, exprs: Sequence[ExprLike], name: str = "zmax", lb: Optional[float] = None
    ) -> Variable:
        """Return a variable ``z`` constrained to ``z >= e`` for each expr.

        When ``z`` appears with positive weight in a minimization
        objective, at the optimum ``z`` equals ``max(exprs)`` (or ``lb``
        if that is larger), which is exactly the charged-volume semantics
        of the 100-th percentile scheme.
        """
        if not exprs:
            raise ModelError("add_max_epigraph needs at least one expression")
        z = self.add_variable(name, lb=None)
        for i, expr in enumerate(exprs):
            self.add_constraint(z >= expr, name=f"{name}_ge[{i}]")
        if lb is not None:
            self.add_constraint(z >= lb, name=f"{name}_lb")
        return z

    # -- objective --------------------------------------------------------

    def minimize(self, expr: ExprLike) -> None:
        """Set a minimization objective."""
        self._set_objective(expr, minimize=True)

    def maximize(self, expr: ExprLike) -> None:
        """Set a maximization objective."""
        self._set_objective(expr, minimize=False)

    def _set_objective(self, expr: ExprLike, minimize: bool) -> None:
        if isinstance(expr, Variable):
            expr = expr.as_expr()
        elif isinstance(expr, (int, float)):
            expr = LinExpr({}, float(expr), self._id)
        if not isinstance(expr, LinExpr):
            raise ModelError(f"objective must be linear, got {type(expr).__name__}")
        if expr._model_id not in (-1, self._id):
            raise ModelError("objective references variables from a different model")
        self.objective = expr
        self.sense_minimize = minimize

    # -- solving ------------------------------------------------------------

    def solve(self, **options) -> Solution:
        """Solve and return a :class:`Solution` (see :func:`solve_lp`)."""
        return solve_lp(self, **options)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"cons={self.num_constraints})"
        )


def _bounds_array(variables) -> np.ndarray:
    """Variable bounds as an ``(n, 2)`` float array: two column slices
    for the backend, where per-variable tuples cost a conversion pass."""
    n = len(variables)
    bounds = np.empty((n, 2), dtype=float)
    bounds[:, 0] = np.fromiter((v.lb for v in variables), dtype=float, count=n)
    bounds[:, 1] = np.fromiter((v.ub for v in variables), dtype=float, count=n)
    return bounds


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
            problem.name = model.name
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


class ModelSolution(Solution):
    """A solved :class:`Model`: values by variable or expression, duals
    by constraint."""

    def __init__(self, solution: Solution, model: Model, problem: CompiledProblem):
        source = solution._row_dual_source
        super().__init__(
            solution.status, solution.x, solution.objective, solver=solution.solver,
            iterations=solution.iterations, message=solution.message,
            row_duals=source,
        )
        self._model_id = model._id
        #: Maps id(constraint) -> dual value (d objective / d rhs), derived
        #: from :attr:`row_duals` on the first read; None without duals.
        self._dual_source = (
            None if source is None else partial(_extract_duals, model.constraints, problem)
        )

    def value(self, item: Union[Variable, LinExpr, float, int]) -> float:
        """Evaluate a variable or linear expression at the optimum."""
        if isinstance(item, (int, float)):
            return float(item)
        if isinstance(item, Variable):
            self._check_model(item._model_id)
            return float(self.x[item.index])
        if isinstance(item, LinExpr):
            if item._model_id != -1:
                self._check_model(item._model_id)
            total = item.constant
            for idx, coef in item.coeffs.items():
                total += coef * self.x[idx]
            return float(total)
        raise TypeError(f"cannot evaluate object of type {type(item).__name__}")

    @property
    def _duals(self) -> "dict | None":
        if callable(self._dual_source):
            self._dual_source = self._dual_source(self.row_duals)
        return self._dual_source

    @property
    def has_duals(self) -> bool:
        return self._duals is not None

    def dual(self, constraint) -> float:
        """Shadow price of a constraint: d(objective) / d(rhs).

        A solver that reports none raises :class:`ModelError` here.
        Sign convention follows the constraint as written: relaxing
        ``expr <= b`` by one unit changes a minimization objective by
        ``dual`` (<= 0), and tightening ``expr >= b`` likewise.
        """
        if self._duals is None:
            raise ModelError(f"solver {self.solver!r} does not report dual values")
        try:
            return self._duals[id(constraint)]
        except KeyError:
            raise ModelError(
                "unknown constraint (was it added to this model before solving?)"
            ) from None

    def _check_model(self, model_id: int) -> None:
        if model_id != self._model_id:
            raise ModelError("this Solution belongs to a different Model")


def _extract_duals(constraints, problem, row_dual):
    """Map HiGHS's row duals (``a_ub`` rows, then ``a_eq``) back to
    model-level shadow prices.  A GE row was negated at compile time
    and a maximization's costs were, so those duals flip sign."""
    first = {"ub": 0, "eq": problem.num_inequalities}
    flip = -1.0 if problem.maximize else 1.0
    return {
        id(constraint): flip * sign * float(row_dual[first[kind] + row])
        for constraint, (kind, row, sign) in zip(constraints, problem.row_map)
    }


def solve_lp(problem: "Model | CompiledProblem", **options) -> Solution:
    """:func:`repro.lp.solve_lp`, taking a :class:`Model` too (lowered
    first; its solution is a :class:`ModelSolution`)."""
    if not isinstance(problem, Model):
        return solve_compiled(problem, **options)
    compiled = compile_model(problem)
    return ModelSolution(solve_compiled(compiled, **options), problem, compiled)
