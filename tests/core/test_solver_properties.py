"""Property-based tests of the full KMR solver on random problems.

Hypothesis generates random orchestration problems — random ladders,
bandwidths, subscription graphs, priority weights, virtual publishers and
screen-share entities — and checks the solver's universal invariants:

* the solution always validates (all three constraint families);
* the iteration count respects the paper's convergence bound;
* determinism: same problem, same solution;
* monotonicity: relaxing a bandwidth never *reduces* achievable QoE by
  more than tie-break noise (checked as: strictly more budget never makes
  the solution infeasible, and the Step-1 objective is monotone).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import Bandwidth, GsoSolver, Resolution, SolverConfig, StreamSpec
from repro.core.bruteforce import step1_objective
from repro.core.constraints import Problem, Subscription
from repro.core.knapsack import knapsack_step
from repro.core.ladder import qoe_utility

RESOLUTIONS = [Resolution.P180, Resolution.P360, Resolution.P720]
RES_RANGES = {
    Resolution.P720: (900, 1500),
    Resolution.P360: (400, 800),
    Resolution.P180: (100, 300),
}


@st.composite
def ladders(draw):
    """A random valid feasible set over 1-3 resolutions."""
    chosen = draw(
        st.lists(
            st.sampled_from(RESOLUTIONS), min_size=1, max_size=3, unique=True
        )
    )
    used = set()
    streams = []
    for res in chosen:
        lo, hi = RES_RANGES[res]
        n = draw(st.integers(1, 4))
        for _ in range(n):
            rate = draw(st.integers(lo, hi))
            while rate in used:
                rate -= 1
            if rate < 1:
                continue
            used.add(rate)
            streams.append(StreamSpec(rate, res, qoe_utility(rate)))
    assume(streams)
    return streams


@st.composite
def problems(draw):
    n = draw(st.integers(2, 4))
    clients = [f"C{k}" for k in range(n)]
    feasible = {}
    bandwidth = {}
    owners = {}
    aliases = {}
    for c in clients:
        bandwidth[c] = Bandwidth(
            uplink_kbps=draw(st.integers(0, 6000)),
            downlink_kbps=draw(st.integers(0, 6000)),
            audio_protection_kbps=draw(st.sampled_from([0, 50])),
        )
        if draw(st.booleans()):
            feasible[c] = draw(ladders())
        # Occasionally attach a screen entity.
        if c in feasible and draw(st.integers(0, 4)) == 0:
            sid = f"{c}:screen"
            feasible[sid] = draw(ladders())
            owners[sid] = c
    assume(feasible)
    subs = []
    caps = [Resolution.P180, Resolution.P360, Resolution.P720]
    for sub in clients:
        for pub in list(feasible):
            if pub == sub or pub.startswith(f"{sub}:"):
                continue
            if draw(st.booleans()):
                subs.append(Subscription(sub, pub, draw(st.sampled_from(caps))))
                # Occasionally add a dual (virtual) subscription.
                if ":" not in pub and draw(st.integers(0, 5)) == 0:
                    vid = f"{pub}#v@{sub}"
                    aliases.setdefault(vid, pub)
                    subs.append(
                        Subscription(sub, vid, Resolution.P180)
                    )
    return Problem(feasible, bandwidth, subs, aliases=aliases, owners=owners)


@given(problems())
@settings(max_examples=120, deadline=None)
def test_solution_always_validates(problem):
    solver = GsoSolver(SolverConfig(granularity_kbps=10))
    solution, stats = solver.solve_with_stats(problem)
    solution.validate(problem)
    # Paper's convergence bound: publishers x resolutions (+1 slack).
    bound = (
        sum(
            len({s.resolution for s in problem.feasible_streams[p]})
            for p in problem.publishers
        )
        + 1
    )
    assert stats.iterations <= bound


@given(problems())
@settings(max_examples=60, deadline=None)
def test_solver_is_deterministic(problem):
    solver = GsoSolver(SolverConfig(granularity_kbps=10))
    a = solver.solve(problem)
    b = solver.solve(problem)
    assert a.policies == b.policies
    assert a.assignments == b.assignments


@given(problems(), st.integers(100, 2000))
@settings(max_examples=60, deadline=None)
def test_step1_objective_monotone_in_downlink(problem, extra):
    """Adding downlink budget to every client never lowers Eq. (1)."""
    base = step1_objective(knapsack_step(problem))
    relaxed_bandwidth = {
        c: Bandwidth(
            bw.uplink_kbps,
            bw.downlink_kbps + extra,
            bw.audio_protection_kbps,
        )
        for c, bw in problem.bandwidth.items()
    }
    relaxed = Problem(
        problem.feasible_streams,
        relaxed_bandwidth,
        problem.subscriptions,
        aliases=problem.aliases,
        owners=problem.owners,
    )
    assert step1_objective(knapsack_step(relaxed)) >= base - 1e-9


@given(problems())
@settings(max_examples=60, deadline=None)
def test_fallback_solution_always_validates(problem):
    from repro.control.failover import single_stream_fallback

    solution = single_stream_fallback(problem)
    solution.validate(problem)


@given(problems(), st.floats(0.0, 0.5))
@settings(max_examples=60, deadline=None)
def test_stickiness_preserves_validity(problem, stickiness):
    """Any incumbent map + stickiness still yields a valid solution."""
    solver = GsoSolver(
        SolverConfig(granularity_kbps=10, stickiness=stickiness)
    )
    first = solver.solve(problem)
    incumbent = {
        (sub, pub): stream.resolution
        for sub, per_pub in first.assignments.items()
        for pub, stream in per_pub.items()
    }
    second = solver.solve(problem, incumbent=incumbent)
    second.validate(problem)
    # With an incumbent from the same problem, the solution is stable.
    assert second.assignments == first.assignments
