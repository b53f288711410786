"""Solve executor: every cache-miss solve, in-process.

One stateless :class:`~repro.core.solver.GsoSolver` behind the two call
shapes the cluster needs: :meth:`SolvePool.solve` for one problem (with
incumbent stickiness) and :meth:`SolvePool.solve_many` for a tick's batch
of misses, in input order.  Each batched solve runs under a
``pool.solve`` span, so a traced tick shows one child per miss.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..core.constraints import Problem
from ..core.solution import Solution
from ..core.solver import GsoSolver, SolverConfig
from ..core.types import ClientId, Resolution
from ..obs.names import SPAN_POOL_SOLVE
from ..obs.spans import span


class SolvePool:
    """Executes solver calls in-process.

    Args:
        solver_config: solver tuning shared by every solve.
    """

    def __init__(self, solver_config: Optional[SolverConfig] = None) -> None:
        self._solver = GsoSolver(solver_config)

    def solve(
        self,
        problem: Problem,
        incumbent: Optional[Mapping[Tuple[ClientId, ClientId], Resolution]] = None,
    ) -> Solution:
        """Solve one problem (supports incumbent stickiness)."""
        return self._solver.solve(problem, incumbent=incumbent)

    def solve_many(self, problems: Sequence[Problem]) -> List[Solution]:
        """Solve a batch, preserving input order, one ``pool.solve`` span
        per problem."""
        out: List[Solution] = []
        for problem in problems:
            with span(SPAN_POOL_SOLVE):
                out.append(self._solver.solve(problem))
        return out
