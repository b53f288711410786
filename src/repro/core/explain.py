"""Human-readable traces of the KMR algorithm's decisions.

``explain_solve`` runs :class:`~repro.core.solver.GsoSolver` and narrates
what its Knapsack-Merge-Reduction loop decided on every iteration — which
streams each subscriber's knapsack picked, which requests merged down to
which bitrate, which uplinks needed fixing or reduction.  Fig. 5 of the
paper is exactly this trace drawn as a diagram; in production such traces
are the first tool for "why did client X get 360p?" questions.

It takes the solver's whole input (problem, :class:`SolverConfig`,
incumbent), and its ``solution`` is the solver's own: a private subclass
overrides :meth:`GsoSolver._on_iteration`, which the loop calls once per
iteration after Step 3.  Each iteration lists every subscriber's current
Step-1 answer, whether that iteration re-solved it or the dirty set kept
it.
"""

from __future__ import annotations

from typing import List, Optional

from .constraints import Problem
from .knapsack import Incumbent
from .solution import Solution
from .solver import GsoSolver, SolverConfig
from .types import StreamSpec


def _fmt_stream(stream: StreamSpec) -> str:
    return f"{stream.bitrate_kbps}kbps@{stream.resolution}"


class _Narrator(GsoSolver):
    """A :class:`GsoSolver` that narrates each iteration into ``lines``."""

    def __init__(self, config: Optional[SolverConfig]) -> None:
        super().__init__(config)
        self.lines: List[str] = []

    def _on_iteration(self, problem, iteration, requests, policies, outcome) -> None:
        lines = self.lines
        lines.append(f"iteration {iteration}")

        lines.append("  step 1 (knapsack): per-subscriber downlink fills")
        for sub in problem.subscribers:
            picks = requests.get(sub, {})
            detail = ", ".join(f"{pub}:{_fmt_stream(s)}" for pub, s in sorted(picks.items()))
            used = sum(s.bitrate_kbps for s in picks.values())
            lines.append(
                f"    {sub} (budget {problem.downlink_budget(sub)}kbps, used {used}kbps): "
                f"{detail or 'nothing fits'}"
            )

        lines.append("  step 2 (merge): per-publisher codec consolidation")
        for pub in sorted(policies):
            for res in sorted(policies[pub], reverse=True):
                entry = policies[pub][res]
                requested = sorted(
                    s.bitrate_kbps
                    for per in requests.values()
                    for literal, s in per.items()
                    if problem.canonical(literal) == pub and s.resolution == res
                )
                note = f" (merged from {requested})" if len(set(requested)) > 1 else ""
                lines.append(
                    f"    {pub}@{res}: {entry.bitrate_kbps}kbps to "
                    f"{{{', '.join(sorted(entry.audience))}}}{note}"
                )

        lines.append("  step 3 (reduction): uplink checks")
        for owner in sorted({problem.owner(pub) for pub in policies}):
            asked = sum(
                e.bitrate_kbps
                for pub in policies
                if problem.owner(pub) == owner
                for e in policies[pub].values()
            )
            budget = problem.uplink_budget(owner)
            verdict = "ok" if asked <= budget else "over budget"
            lines.append(f"    {owner}: asked {asked}kbps of {budget}kbps -> {verdict}")
        if not outcome.solved:
            pub, res = outcome.reduce
            lines.append(f"    unfixable: removing {res} from {pub}'s feasible set")
            return
        # Report any bitrate fixes applied relative to the merge output.
        for pub in sorted(outcome.policies):
            for res, entry in outcome.policies[pub].items():
                merged = policies.get(pub, {}).get(res)
                if merged is not None and merged.stream != entry.stream:
                    lines.append(
                        f"    fixed {pub}@{res}: {merged.bitrate_kbps} -> {entry.bitrate_kbps}kbps"
                    )


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
    narrator = _Narrator(config)
    solution = narrator.solve(problem, incumbent)
    narrator.lines += ["  solution found", solution.summary()]
    return ExplainedSolve(solution=solution, lines=narrator.lines)


class ExplainedSolve:
    """The solution plus its narrated derivation."""

    def __init__(self, solution: Solution, lines: List[str]) -> None:
        self.solution = solution
        self.lines = lines

    def __str__(self) -> str:
        return "\n".join(self.lines)
