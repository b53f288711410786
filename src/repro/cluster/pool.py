"""Solve executor: every cache-miss solve, in-process.

One stateless :class:`~repro.core.solver.GsoSolver` behind
:meth:`SolvePool.solve` (with incumbent stickiness).
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ..core.constraints import Problem
from ..core.solution import Solution
from ..core.solver import GsoSolver, SolverConfig
from ..core.types import ClientId, Resolution


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
