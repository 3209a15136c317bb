"""Backend interface shared by all LP solvers."""

from __future__ import annotations

import abc

from repro.lp.compile import CompiledProblem
from repro.lp.model import Model
from repro.lp.result import Solution


class Backend(abc.ABC):
    """A solver capable of optimizing a compiled linear program."""

    name: str = "abstract"

    @abc.abstractmethod
    def solve(self, model: "Model | CompiledProblem", **options) -> Solution:
        """Solve ``model`` (or an already compiled problem, which
        ``compile_model`` passes through) and return a :class:`Solution`.

        Implementations must not raise on infeasible/unbounded problems;
        they report it through :attr:`Solution.status` and let the model
        layer turn it into typed exceptions.

        A solver that could not answer returns :attr:`SolveStatus.ERROR`
        with the reason in :attr:`Solution.message`, which ``Model.solve``
        raises as a :class:`~repro.errors.SolverError`.  Nothing retries
        (docs/ROBUSTNESS.md, "When the LP does not answer").
        """
