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
from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..obs.spans import span
from .constraints import Problem
from .engine import EngineStats, default_mckp_cache
from .knapsack import Requests, knapsack_step
from .merge import Policies, merge_step
from .reduction import ReductionOutcome, reduction_step
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


class _Step(NamedTuple):
    """One KMR iteration of a recorded solve."""

    #: The subscribers the iteration's Step 1 answered (everyone in
    #: iteration 1, then each dirty set) -> the answer *template* each got:
    #: the shared ``groups`` object, never a per-subscriber copy.
    answers: Requests
    #: Step 2's merged policies.
    policies: Policies
    #: Step 3's outcome.
    outcome: ReductionOutcome


class KmrRun:
    """What one solve learned, kept by its caller for the next one.

    :class:`GsoSolver` is a pure function of its :class:`Problem`, so the
    iterations of one solve are exactly valid for the next wherever the
    inputs they read are unchanged (``docs/SOLVER.md``, the replay
    lemma).  A run is the memo of that: the picture and config the last
    solve was a function of and, per KMR iteration, a :class:`_Step`.
    It is caller-owned state, not a setting: whoever re-decides one
    meeting creates an empty run, passes it as ``warm=`` to every solve of
    that meeting and drops it when the meeting's history stops being its
    own (the controller cluster keeps one per hosted meeting, on its
    ``MeetingRecord``).  The solver reads it at the start and overwrites
    it on success; a solve that raises leaves it as it was.  Handing a
    run the problem of another meeting is safe (what differs is
    re-solved), only useless.

    The steps are kept only once the meeting has been solved over one
    topology value twice in a row (``streak``): a meeting that is solved
    once, or whose pictures keep changing their edges, would pay their
    memory, and the collector's time over it, for nothing.  The picture
    and the streak are remembered either way, so the next solve can
    tell.  So the third solve in a row records and the fourth replays.

    Attributes:
        problem: the picture the last successful solve was of.
        config: its :class:`SolverConfig`.
        streak: how many solves in a row, that one included, were over
            ``problem``'s topology value.
        steps: that solve's iterations, or ``()`` when none are kept.
    """

    __slots__ = ("problem", "config", "streak", "steps", "__weakref__")

    #: The streak from which a solve records its steps.
    RECORD_FROM = 3

    def __init__(self) -> None:
        self.problem: Optional[Problem] = None
        self.config: Optional[SolverConfig] = None
        self.streak = 0
        self.steps: Tuple[_Step, ...] = ()


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
    via :meth:`solve_with_stats`.  What a caller wants carried from one
    solve of a meeting to the next it owns and passes in: a
    :class:`KmrRun` as ``warm=``, created empty by whoever re-decides the
    meeting and dropped with it.  Without one (``warm=None``: every direct
    caller, ``core/explain.py``, the reference loop of the tests) each
    solve starts from nothing.
    """

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()

    def solve(
        self,
        problem: Problem,
        incumbent: Optional[Mapping[Tuple[ClientId, ClientId], Resolution]] = None,
        warm: Optional[KmrRun] = None,
    ) -> Solution:
        """Solve and return only the solution (see :meth:`solve_with_stats`)."""
        solution, _ = self.solve_with_stats(
            problem, incumbent=incumbent, warm=warm
        )
        return solution

    def solve_with_stats(
        self,
        problem: Problem,
        incumbent: Optional[Mapping[Tuple[ClientId, ClientId], Resolution]] = None,
        warm: Optional[KmrRun] = None,
    ) -> Tuple[Solution, SolveStats]:
        """Run the KMR loop to termination.

        Args:
            warm: the caller's :class:`KmrRun` for this meeting.  While
                this solve deletes what the recorded one deleted, each
                iteration answers only the subscribers whose
                :class:`~repro.core.constraints.Bandwidth` changed, moves
                only them between Step 2's audiences and re-checks Step 3
                only when a policy or an owner's uplink differs; from the
                first differing deletion on it is the loop below with
                nothing recorded.  The result is the one ``warm=None``
                gives, byte for byte.  Overwritten on success.

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
        subscribers = problem.subscribers
        requests: Requests = {}
        #: Step 1's answer sharing, kept in step with ``requests`` for Step 2.
        groups: Requests = {}
        #: The subscribers whose held stream the last reduction deleted;
        #: ``None`` before the first one.
        dirty: Optional[List[ClientId]] = None

        #: The steps of ``warm`` while this solve follows them, else ``None``.
        recorded: Optional[Tuple[_Step, ...]] = None
        #: The steps this solve leaves in ``warm``; ``None`` keeps none.
        record: Optional[List[_Step]] = None
        #: The clients whose Bandwidth differs from the recorded picture's.
        changed: Set[ClientId] = set()
        #: Those of them that subscribe, as the topology spells their ids
        #: (they go into audiences, and pickle tells strings apart).
        movers: List[ClientId] = []
        #: Each mover's current request map on the recorded trajectory.
        then: Requests = {}
        #: Whether an owner's uplink budget is not the recorded one.
        uplink_moved = False
        earlier = warm.problem if warm is not None else None
        streak = 1
        if earlier is not None and problem.same_topology(earlier):
            streak += warm.streak
        if (
            streak >= KmrRun.RECORD_FROM
            and not incumbent
            and not cfg.exhaustive_step1
        ):
            record = []
            replayable = (
                problem.changed_bandwidths(earlier)
                if warm.steps and warm.config == cfg
                else None
            )
            if replayable is not None:
                recorded, changed = warm.steps, replayable
                movers = [sub for sub in subscribers if sub in changed]
                owners = {problem.owner(pub) for pub in feasible}
                uplink_moved = any(
                    client in owners
                    and problem.uplink_budget(client)
                    != earlier.uplink_budget(client)
                    for client in changed
                )

        with span(obs_names.SPAN_KMR_SOLVE):
            for iteration in range(1, cap + 1):
                stats.iterations = iteration
                step = recorded[iteration - 1] if recorded else None
                asked = subscribers if dirty is None else dirty
                #: The subscribers Step 1 solves; ``None`` solves everyone.
                todo = dirty
                since = None
                if step is not None:
                    # The replay lemma (docs/SOLVER.md): the feasible sets
                    # are the recorded ones, so whoever's Bandwidth is the
                    # recorded one has the recorded answer.
                    answers = step.answers
                    todo = [
                        sub
                        for sub in asked
                        if sub in changed or sub not in answers
                    ]
                    for sub in asked:
                        requests[sub] = groups[sub] = answers.get(sub)
                    for sub in movers:
                        if sub in answers:
                            then[sub] = answers[sub]
                step_span = obs_names.SPAN_KMR_KNAPSACK
                if todo is not None:
                    step_span = obs_names.SPAN_KMR_KNAPSACK_DIRTY
                    skipped = len(subscribers) - len(todo)
                    stats.engine.step1_skipped += skipped
                    if reg.enabled:
                        if skipped:
                            reg.counter(obs_names.KMR_STEP1_SKIPPED).inc(
                                skipped
                            )
                        reg.histogram(
                            obs_names.KMR_DIRTY_SET_SIZE
                        ).observe(len(todo))
                with span(step_span):
                    requests.update(
                        knapsack_step(
                            problem,
                            feasible=feasible,
                            granularity=cfg.granularity_kbps,
                            exhaustive=cfg.exhaustive_step1,
                            incumbent=inc_map,
                            stickiness=stickiness,
                            subscribers=todo,
                            cache=cache,
                            stats=stats.engine,
                            groups=groups,
                        )
                    )
                if step is not None and not problem.aliases:
                    # A mover is compared with where the record has it
                    # *now*, not with what either side answered this
                    # iteration: one that diverged earlier still differs.
                    # (Virtual publishers are merged whole: which of a
                    # publisher's ids keys its policies is Step 2's to say.)
                    since = (
                        step.policies,
                        [
                            (sub, then[sub])
                            for sub in movers
                            if groups[sub] != then[sub]
                        ],
                    )
                with span(obs_names.SPAN_KMR_MERGE):
                    policies = merge_step(problem, requests, groups, since)
                if (
                    step is not None
                    and policies is step.policies
                    and not uplink_moved
                ):
                    outcome = step.outcome
                else:
                    with span(obs_names.SPAN_KMR_REDUCTION):
                        outcome = reduction_step(
                            problem,
                            policies,
                            feasible,
                            granularity=cfg.granularity_kbps,
                        )
                if record is not None:
                    record.append(
                        _Step(
                            {sub: groups[sub] for sub in asked},
                            policies,
                            outcome,
                        )
                    )
                if outcome.solved:
                    stats.reductions = reduced
                    stats.wall_time_s = time.perf_counter() - start
                    solution = _build_solution(
                        problem, requests, outcome.policies, iteration, reduced
                    )
                    if warm is not None:
                        warm.problem = problem
                        warm.config = cfg
                        warm.streak = streak
                        warm.steps = tuple(record or ())
                    self._record_convergence(reg, stats, "solved")
                    return solution, stats
                pub, res = outcome.reduce
                if step is not None and outcome.reduce != step.outcome.reduce:
                    # Another deletion than the recorded one: from here on
                    # the record describes feasible sets this solve does
                    # not have.  The loop goes on from its current state.
                    recorded = None
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
