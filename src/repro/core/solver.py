"""The GSO control algorithm: the Knapsack-Merge-Reduction iteration loop.

This is the paper's core contribution (Sec. 4.1).  Each iteration:

1. **Knapsack** — per-subscriber MCKP over the current feasible sets
   (downlink + subscription constraints);
2. **Merge** — per-publisher, collapse same-resolution requests to the
   minimum bitrate (codec capability constraints);
3. **Reduction** — per-publisher uplink check; fix by lowering bitrates, or
   delete the highest offending resolution from one publisher's feasible set
   and start over.

Convergence: every iteration either terminates or strictly shrinks one
publisher's feasible set by a whole resolution, so the iteration count is
bounded by ``sum_i |resolutions(S_i)|`` (the paper's "number of publishers
times the number of resolutions").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..obs.spans import span
from .constraints import Problem
from .engine import EngineStats, default_mckp_cache
from .knapsack import Requests, knapsack_step
from .merge import merge_step
from .reduction import reduction_step
from .solution import PolicyEntry, Solution
from .types import ClientId, Resolution, StreamSpec


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs of the GSO solver.

    Attributes:
        granularity_kbps: capacity grid step of the knapsack DP.  1 is
            exact; production-sized meetings can trade a bounded QoE loss
            for speed with 10-50 kbps grids.
        exhaustive_step1: solve Step 1 with exact enumeration instead of DP.
            Exponential — only for the brute-force comparison (Fig. 6) and
            small test oracles.
        max_iterations: hard safety cap on KMR iterations; ``None`` derives
            the theoretical bound from the problem.
        stickiness: relative QoE bonus for keeping a subscriber's incumbent
            resolution from a publisher (switch damping).  Only effective
            when an ``incumbent`` map is passed to :meth:`GsoSolver.solve`.
    """

    granularity_kbps: int = 1
    exhaustive_step1: bool = False
    max_iterations: Optional[int] = None
    stickiness: float = 0.10

    def __post_init__(self) -> None:
        if self.granularity_kbps < 1:
            raise ValueError("granularity_kbps must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.stickiness < 0:
            raise ValueError("stickiness must be non-negative")


@dataclass
class SolveStats:
    """Diagnostics from one solve, consumed by the Fig. 6 benchmarks."""

    iterations: int = 0
    reductions: List[Tuple[ClientId, Resolution]] = field(default_factory=list)
    wall_time_s: float = 0.0
    engine: EngineStats = field(default_factory=EngineStats)


def _iteration_bound(problem: Problem) -> int:
    """The paper's convergence bound: publishers x their resolution counts."""
    total = 0
    for pub in problem.publishers:
        total += len({s.resolution for s in problem.feasible_streams[pub]})
    return max(1, total + 1)


def _build_solution(
    problem: Problem,
    requests: Requests,
    policies: Mapping[ClientId, Mapping[Resolution, PolicyEntry]],
    iterations: int,
    reduced: List[Tuple[ClientId, Resolution]],
) -> Solution:
    """Assemble the Solution's two views from the final policies.

    Assignment *resolutions* come from the final Step-1 requests (keyed by
    the literal — possibly virtual — publisher id each subscriber asked),
    but the *bitrates* come from the final policies: merging and fixing may
    have lowered bitrates below what subscribers originally asked for, and
    the lowered stream is what they receive.
    """
    assignments: Dict[ClientId, Dict[ClientId, StreamSpec]] = {}
    for sub, per_pub in requests.items():
        for literal_pub, requested in per_pub.items():
            canonical = problem.canonical(literal_pub)
            entry = policies.get(canonical, {}).get(requested.resolution)
            assert entry is not None and sub in entry.audience, (
                f"request {sub!r}<-{literal_pub!r}@{requested.resolution} "
                f"not covered by final policies"
            )
            assignments.setdefault(sub, {})[literal_pub] = entry.stream
    final_policies: Dict[ClientId, Dict[Resolution, PolicyEntry]] = {
        pub: dict(entries) for pub, entries in policies.items()
    }
    return Solution(
        policies=final_policies,
        assignments=assignments,
        iterations=iterations,
        reduced=list(reduced),
    )


class GsoSolver:
    """Solves the global stream orchestration problem.

    Typical use::

        solver = GsoSolver()
        solution = solver.solve(problem)
        solution.validate(problem)

    The solver is stateless between calls; per-call diagnostics are exposed
    via :meth:`solve_with_stats`.
    """

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()

    def solve(
        self,
        problem: Problem,
        incumbent: Optional[Mapping[Tuple[ClientId, ClientId], Resolution]] = None,
    ) -> Solution:
        """Solve and return only the solution (see :meth:`solve_with_stats`)."""
        solution, _ = self.solve_with_stats(problem, incumbent=incumbent)
        return solution

    def solve_with_stats(
        self,
        problem: Problem,
        incumbent: Optional[Mapping[Tuple[ClientId, ClientId], Resolution]] = None,
    ) -> Tuple[Solution, SolveStats]:
        """Run the KMR loop to termination.

        Returns:
            ``(solution, stats)``.  The solution always satisfies all three
            constraint families; publishers whose every resolution was
            reduced away simply publish nothing.

        Raises:
            RuntimeError: if the iteration cap is hit — by the convergence
                argument this indicates a bug, not a hard instance.
        """
        cfg = self.config
        stats = SolveStats()
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.KMR_SOLVES).inc()
        start = time.perf_counter()
        feasible: Dict[ClientId, List[StreamSpec]] = {
            pub: list(streams) for pub, streams in problem.feasible_streams.items()
        }
        cap = cfg.max_iterations or _iteration_bound(problem)
        reduced: List[Tuple[ClientId, Resolution]] = []
        inc_map = dict(incumbent) if incumbent else None
        stickiness = cfg.stickiness if incumbent else 0.0
        cache = default_mckp_cache()
        requests: Requests = {}
        #: Step 1's answer sharing, kept in step with ``requests`` for Step 2.
        groups: Requests = {}
        #: The subscribers Step 1 re-solves; ``None`` solves everyone.
        dirty: Optional[List[ClientId]] = None
        with span(obs_names.SPAN_KMR_SOLVE):
            for iteration in range(1, cap + 1):
                stats.iterations = iteration
                step_span = obs_names.SPAN_KMR_KNAPSACK
                if dirty is not None:
                    step_span = obs_names.SPAN_KMR_KNAPSACK_DIRTY
                    skipped = len(problem.subscribers) - len(dirty)
                    stats.engine.step1_skipped += skipped
                    if reg.enabled:
                        if skipped:
                            reg.counter(obs_names.KMR_STEP1_SKIPPED).inc(
                                skipped
                            )
                        reg.histogram(
                            obs_names.KMR_DIRTY_SET_SIZE
                        ).observe(len(dirty))
                with span(step_span):
                    requests.update(
                        knapsack_step(
                            problem,
                            feasible=feasible,
                            granularity=cfg.granularity_kbps,
                            exhaustive=cfg.exhaustive_step1,
                            incumbent=inc_map,
                            stickiness=stickiness,
                            subscribers=dirty,
                            cache=cache,
                            stats=stats.engine,
                            groups=groups,
                        )
                    )
                with span(obs_names.SPAN_KMR_MERGE):
                    policies = merge_step(problem, requests, groups)
                with span(obs_names.SPAN_KMR_REDUCTION):
                    outcome = reduction_step(
                        problem,
                        policies,
                        feasible,
                        granularity=cfg.granularity_kbps,
                    )
                if outcome.solved:
                    stats.reductions = reduced
                    stats.wall_time_s = time.perf_counter() - start
                    solution = _build_solution(
                        problem, requests, outcome.policies, iteration, reduced
                    )
                    self._record_convergence(reg, stats, "solved")
                    return solution, stats
                pub, res = outcome.reduce
                feasible[pub] = [s for s in feasible[pub] if s.resolution != res]
                reduced.append((pub, res))
                if not cfg.exhaustive_step1:
                    # The reduction removed only ``pub``'s streams at
                    # ``res``.  A subscriber that held none of them keeps
                    # its answer (docs/SOLVER.md, the deletion lemma), so
                    # the next Step 1 re-solves exactly the deleted
                    # entry's audience.  (The brute-force Step 1 of
                    # Fig. 6 has no dirty set: it enumerates every
                    # subscriber on every iteration.)
                    dirty = sorted(policies[pub][res].audience)
                if reg.enabled:
                    reg.counter(obs_names.KMR_REDUCTIONS).inc()
        stats.wall_time_s = time.perf_counter() - start
        self._record_convergence(reg, stats, "iteration_cap")
        raise RuntimeError(
            f"KMR loop failed to converge within {cap} iterations; "
            f"reductions so far: {reduced}"
        )

    @staticmethod
    def _record_convergence(reg, stats: SolveStats, reason: str) -> None:
        """Record one finished solve's iteration count, wall time and reason."""
        if reg.enabled:
            reg.counter(obs_names.KMR_ITERATIONS_TOTAL).inc(stats.iterations)
            reg.histogram(obs_names.KMR_ITERATIONS).observe(stats.iterations)
            reg.histogram(obs_names.KMR_SOLVE_SECONDS).observe(stats.wall_time_s)
            reg.counter(obs_names.KMR_CONVERGENCE, reason=reason).inc()


def solve(problem: Problem, config: Optional[SolverConfig] = None) -> Solution:
    """Module-level convenience wrapper around :class:`GsoSolver`."""
    return GsoSolver(config).solve(problem)
