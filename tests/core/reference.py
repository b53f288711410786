"""The test-local reference KMR solve the differential tests compare
``GsoSolver`` against.

It is the algorithm of Sec. 4.1 read literally: every iteration re-solves
**every** subscriber's knapsack on its own (`solve_subscriber`), merges,
and runs the uplink reduction — no dirty set, no shape groups, no capacity
profile, no cache.  By default the two dynamic programs underneath are
answered by the pure-Python oracles kept in ``repro.core.mckp``
(`_solve_mckp_dp_python` for Step 1, `_solve_mckp_dp_mandatory_python`
for Step 3), substituted by patching the names the per-subscriber path
looks up; production code has no switch that reaches them.
"""

import pickle
from contextlib import ExitStack
from typing import Callable, List, Optional, Tuple
from unittest import mock

from repro.core import knapsack, reduction
from repro.core.constraints import Problem
from repro.core.knapsack import Incumbent, solve_subscriber
from repro.core.merge import merge_step
from repro.core.mckp import _solve_mckp_dp_mandatory_python, _solve_mckp_dp_python
from repro.core.reduction import reduction_step
from repro.core.solution import Solution
from repro.core.solver import (
    GsoSolver,
    SolverConfig,
    SolveStats,
    _build_solution,
    _iteration_bound,
)
from repro.core.types import ClientId, Resolution

Reductions = List[Tuple[ClientId, Resolution]]


def reference_solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    incumbent: Optional[Incumbent] = None,
    python_dp: bool = True,
) -> Tuple[Solution, int, Reductions]:
    """Solve ``problem`` from scratch; returns ``(solution, iterations,
    reductions)``, the three things ``GsoSolver.solve_with_stats`` must
    reproduce byte for byte.

    ``python_dp=False`` keeps the array DPs under the from-scratch loop:
    the exact grid (granularity 1) on large meetings is out of the
    pure-Python oracle's reach.
    """
    cfg = config or SolverConfig()
    stickiness = cfg.stickiness if incumbent else 0.0
    feasible = {pub: list(s) for pub, s in problem.feasible_streams.items()}
    reduced: Reductions = []
    with ExitStack() as patches:
        if python_dp:
            patches.enter_context(
                mock.patch.object(knapsack, "solve_mckp_dp", _solve_mckp_dp_python)
            )
            patches.enter_context(
                mock.patch.object(
                    reduction,
                    "solve_mckp_dp_mandatory",
                    _solve_mckp_dp_mandatory_python,
                )
            )
        for iteration in range(1, _iteration_bound(problem) + 1):
            requests = {
                sub: solve_subscriber(
                    problem,
                    sub,
                    feasible=feasible,
                    granularity=cfg.granularity_kbps,
                    incumbent=incumbent or None,
                    stickiness=stickiness,
                )
                for sub in problem.subscribers
            }
            outcome = reduction_step(
                problem,
                merge_step(problem, requests),
                feasible,
                granularity=cfg.granularity_kbps,
            )
            if outcome.solved:
                solution = _build_solution(
                    problem, requests, outcome.policies, iteration, reduced
                )
                return solution, iteration, reduced
            pub, res = outcome.reduce
            feasible[pub] = [s for s in feasible[pub] if s.resolution != res]
            reduced.append((pub, res))
    raise AssertionError(f"reference KMR loop did not converge: {reduced}")


def assert_solver_matches_reference(
    make_problem: Callable[[], Problem],
    config: Optional[SolverConfig] = None,
    incumbent: Optional[Incumbent] = None,
    python_dp: bool = True,
) -> Tuple[Solution, SolveStats]:
    """Solve a fresh ``make_problem()`` through ``GsoSolver`` and through
    the reference; require equal Solution pickle bytes, iteration count
    and reduction sequence.  Returns the production ``(solution, stats)``.

    A fresh problem per path keeps lazily cached ``Problem`` state from
    leaking between the two.
    """
    solution, stats = GsoSolver(config).solve_with_stats(
        make_problem(), incumbent=incumbent
    )
    want, iterations, reductions = reference_solve(
        make_problem(), config, incumbent, python_dp
    )
    assert pickle.dumps(solution) == pickle.dumps(want)
    assert stats.iterations == iterations
    assert stats.reductions == reductions
    return solution, stats
