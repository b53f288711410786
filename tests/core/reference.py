"""The test-local reference KMR solve the differential tests compare
``GsoSolver`` against.

It is the algorithm of Sec. 4.1 read literally: every iteration re-solves
**every** subscriber's knapsack on its own (`solve_subscriber`), merges,
and runs the uplink reduction — no dirty set, no shape groups, no capacity
profile, no cache.  Step 3 is its own literal walk too (`_reduction_step`:
the fix DP on every over-budget owner, reduce at the first that has no
fix), so the product's decide-first `reduction_step` is compared against
something it cannot silently drag along.  By default the two dynamic programs underneath are
answered by the pure-Python oracles kept in ``repro.core.mckp``
(`_solve_mckp_dp_python` for Step 1, `_solve_mckp_dp_mandatory_python`
for Step 3), substituted by patching the names the per-subscriber path
looks up; production code has no switch that reaches them.

`reference_edge_indexes` is the same kind of thing for ``Problem``: the
validation and the two edge indexes as ``Problem.__init__`` built them in
two loops, kept for the single-pass constructor to be compared against
(and for a ``Problem`` that reuses a live topology, which runs no loop at
all).  `reference_solution_digest` is ``solution_digest`` as it was before
it built each ``(publisher, stream)`` tail once.
"""

import hashlib
import pickle
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

from repro.core import knapsack, reduction
from repro.core.constraints import Problem
from repro.core.knapsack import Incumbent, solve_subscriber
from repro.core.merge import Policies, merge_step
from repro.core.mckp import _solve_mckp_dp_mandatory_python, _solve_mckp_dp_python
from repro.core.reduction import fix_owner, highest_policy_resolution
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


def reference_edge_indexes(
    feasible_streams, bandwidth, subscriptions, aliases=None, owners=None
):
    """``Problem.__init__``'s checks and its ``(followed, served)`` edge
    indexes, copied from the two-loop constructor: one loop validates
    (three ``canonical()`` calls per edge), a second one indexes.

    Raises:
        ValueError: where that constructor did, with its message.
    """
    aliases = dict(aliases or {})
    owners = dict(owners or {})
    subscriptions = list(subscriptions)

    def canonical(publisher):
        return aliases.get(publisher, publisher)

    def owner(publisher):
        return owners.get(canonical(publisher), canonical(publisher))

    for virtual, target in aliases.items():
        if virtual in feasible_streams:
            raise ValueError(
                f"alias {virtual!r} must not have its own feasible set"
            )
        if target not in feasible_streams:
            raise ValueError(
                f"alias {virtual!r} targets unknown publisher {target!r}"
            )
    for entity, owned_by in owners.items():
        if owned_by not in bandwidth:
            raise ValueError(
                f"entity {entity!r} owned by {owned_by!r}, which has no "
                f"bandwidth entry"
            )

    seen_edges = set()
    for edge in subscriptions:
        key = (edge.subscriber, edge.publisher)
        if key in seen_edges:
            raise ValueError(
                f"duplicate subscription {edge.subscriber!r} -> "
                f"{edge.publisher!r}; use virtual publishers for "
                f"multi-stream subscription"
            )
        seen_edges.add(key)
        if canonical(edge.publisher) not in feasible_streams:
            raise ValueError(
                f"subscription to unknown publisher {edge.publisher!r}"
            )
        if edge.subscriber not in bandwidth:
            raise ValueError(
                f"subscriber {edge.subscriber!r} has no bandwidth entry"
            )
        if edge.subscriber == canonical(edge.publisher):
            raise ValueError(
                f"{edge.subscriber!r} subscribes to its own alias "
                f"{edge.publisher!r}"
            )
    for pub in feasible_streams:
        if owner(pub) not in bandwidth:
            raise ValueError(f"publisher {pub!r} has no bandwidth entry")

    followed = {}
    served = {}
    for edge in subscriptions:
        followed.setdefault(edge.subscriber, []).append(edge)
        served.setdefault(canonical(edge.publisher), []).append(edge)
    return followed, served


def reference_solution_digest(solution: Solution) -> str:
    """``solution_digest`` read literally: one lookup per level and one
    line built per edge, no memo."""
    parts: List[str] = []
    for pub in sorted(solution.policies):
        for res in sorted(solution.policies[pub]):
            entry = solution.policies[pub][res]
            parts.append(
                f"P[{pub}@{res.value}]={entry.bitrate_kbps}->"
                f"{','.join(sorted(entry.audience))}"
            )
    for sub in sorted(solution.assignments):
        for pub in sorted(solution.assignments[sub]):
            stream = solution.assignments[sub][pub]
            parts.append(
                f"A[{sub}<-{pub}]={stream.bitrate_kbps}@"
                f"{stream.resolution.value}"
            )
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


def _reduction_step(
    problem: Problem, policies: Policies, feasible, granularity: int
) -> Tuple[Optional[Policies], Optional[Tuple[ClientId, Resolution]]]:
    """Step 3 of Sec. 4.1.3 read literally; ``(final policies, None)`` or
    ``(None, the pair to delete)``.

    Owners in sorted order; an owner over its uplink (Eq. 14) gets the
    Eq. 16 fix DP at once, and the first owner the DP cannot fix names
    the reduction (Eq. 18), whatever was fixed before it.
    """
    per_owner: Dict[ClientId, list] = {}
    for pub in sorted(policies):
        for res in sorted(policies[pub], reverse=True):
            per_owner.setdefault(problem.owner(pub), []).append(
                (pub, res, policies[pub][res])
            )
    final: Policies = {}
    for owner in sorted(per_owner):
        entries = per_owner[owner]
        budget = problem.uplink_budget(owner)
        if sum(entry.bitrate_kbps for _, _, entry in entries) > budget:
            fixed = fix_owner(entries, feasible, budget, granularity=granularity)
            if fixed is None:
                return None, highest_policy_resolution(entries)
            entries = fixed
        for entity, res, entry in entries:
            final.setdefault(entity, {})[res] = entry
    return final, None


def reference_solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    incumbent: Optional[Incumbent] = None,
    python_dp: bool = True,
) -> Tuple[Solution, int, Reductions]:
    """Solve ``problem`` from scratch; returns ``(solution, iterations,
    reductions)``, the three things ``GsoSolver.solve_with_stats`` must
    reproduce byte for byte.

    ``python_dp=False`` keeps the production kernels under the
    from-scratch loop: Step 1 then builds one ``CapacityProfile`` per
    subscriber (``solve_mckp_dp``), and Step 3 runs the sparse fix DP.
    The exact grid (granularity 1) on large meetings is out of the
    pure-Python oracles' reach.
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
            policies, reduce = _reduction_step(
                problem,
                merge_step(problem, requests),
                feasible,
                cfg.granularity_kbps,
            )
            if policies is not None:
                solution = _build_solution(
                    problem, requests, policies, iteration, reduced
                )
                return solution, iteration, reduced
            pub, res = reduce
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
