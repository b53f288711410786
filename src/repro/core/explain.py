"""Human-readable traces of the KMR algorithm's decisions.

``explain_solve`` runs the same Knapsack-Merge-Reduction loop as
:class:`~repro.core.solver.GsoSolver` but narrates every decision — which
streams each subscriber's knapsack picked, which requests merged down to
which bitrate, which uplinks needed fixing or reduction.  Fig. 5 of the
paper is exactly this trace drawn as a diagram; in production such traces
are the first tool for "why did client X get 360p?" questions.

It takes the solver's whole input (problem, :class:`SolverConfig`,
incumbent) and its ``solution`` is byte-identical to the solver's.  It
re-solves every subscriber on every iteration: a narration shows each
subscriber's fill each time, and that makes it a second from-scratch
witness of the solver's dirty set.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .constraints import Problem
from .knapsack import Incumbent, knapsack_step
from .merge import merge_step
from .reduction import reduction_step
from .solution import Solution
from .solver import SolverConfig, _build_solution, _iteration_bound
from .types import ClientId, StreamSpec


def _fmt_stream(stream: StreamSpec) -> str:
    return f"{stream.bitrate_kbps}kbps@{stream.resolution}"


def explain_solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    incumbent: Optional[Incumbent] = None,
) -> "ExplainedSolve":
    """Solve the problem while collecting a decision trace.

    Args:
        config, incumbent: as for :meth:`GsoSolver.solve`; every config
            field and the incumbent's stickiness take effect as they do
            there.

    Returns:
        An :class:`ExplainedSolve` holding the final solution and the
        trace lines; ``str()`` renders the full narration.

    Raises:
        RuntimeError: if the iteration cap is hit, as the solver does.
    """
    cfg = config or SolverConfig()
    lines: List[str] = []
    feasible: Dict[ClientId, List[StreamSpec]] = {
        pub: list(streams) for pub, streams in problem.feasible_streams.items()
    }
    reduced = []
    cap = cfg.max_iterations or _iteration_bound(problem)
    for iteration in range(1, cap + 1):
        lines.append(f"iteration {iteration}")

        requests = knapsack_step(
            problem,
            feasible=feasible,
            granularity=cfg.granularity_kbps,
            exhaustive=cfg.exhaustive_step1,
            incumbent=incumbent or None,
            stickiness=cfg.stickiness if incumbent else 0.0,
        )
        lines.append("  step 1 (knapsack): per-subscriber downlink fills")
        for sub in problem.subscribers:
            budget = problem.downlink_budget(sub)
            picks = requests.get(sub, {})
            if picks:
                detail = ", ".join(
                    f"{pub}:{_fmt_stream(s)}"
                    for pub, s in sorted(picks.items())
                )
            else:
                detail = "nothing fits"
            used = sum(s.bitrate_kbps for s in picks.values())
            lines.append(
                f"    {sub} (budget {budget}kbps, used {used}kbps): {detail}"
            )

        policies = merge_step(problem, requests)
        lines.append("  step 2 (merge): per-publisher codec consolidation")
        for pub in sorted(policies):
            for res in sorted(policies[pub], reverse=True):
                entry = policies[pub][res]
                requested = sorted(
                    s.bitrate_kbps
                    for per in requests.values()
                    for literal, s in per.items()
                    if problem.canonical(literal) == pub
                    and s.resolution == res
                )
                merged_note = (
                    f" (merged from {requested})"
                    if len(set(requested)) > 1
                    else ""
                )
                lines.append(
                    f"    {pub}@{res}: {entry.bitrate_kbps}kbps to "
                    f"{{{', '.join(sorted(entry.audience))}}}{merged_note}"
                )

        outcome = reduction_step(
            problem, policies, feasible, granularity=cfg.granularity_kbps
        )
        lines.append("  step 3 (reduction): uplink checks")
        owners = sorted(
            {problem.owner(pub) for pub in policies}
        )
        for owner in owners:
            asked = sum(
                e.bitrate_kbps
                for pub in policies
                if problem.owner(pub) == owner
                for e in policies[pub].values()
            )
            budget = problem.uplink_budget(owner)
            verdict = "ok" if asked <= budget else "over budget"
            lines.append(
                f"    {owner}: asked {asked}kbps of {budget}kbps -> {verdict}"
            )
        if outcome.solved:
            # Report any bitrate fixes applied relative to the merge output.
            for pub in sorted(outcome.policies):
                for res, entry in outcome.policies[pub].items():
                    merged = policies.get(pub, {}).get(res)
                    if merged is not None and merged.stream != entry.stream:
                        lines.append(
                            f"    fixed {pub}@{res}: "
                            f"{merged.bitrate_kbps} -> {entry.bitrate_kbps}kbps"
                        )
            solution = _build_solution(
                problem, requests, outcome.policies, iteration, reduced
            )
            lines.append("  solution found")
            lines.append(solution.summary())
            return ExplainedSolve(solution=solution, lines=lines)
        pub, res = outcome.reduce
        lines.append(
            f"    unfixable: removing {res} from {pub}'s feasible set"
        )
        feasible[pub] = [s for s in feasible[pub] if s.resolution != res]
        reduced.append((pub, res))
    raise RuntimeError(
        f"KMR loop failed to converge within {cap} iterations; "
        f"reductions so far: {reduced}"
    )


class ExplainedSolve:
    """The solution plus its narrated derivation."""

    def __init__(self, solution: Solution, lines: List[str]) -> None:
        self.solution = solution
        self.lines = lines

    def __str__(self) -> str:
        return "\n".join(self.lines)
