"""Differential equivalence of the solve engine against the reference.

`GsoSolver` (dirty-set Step 1, shape groups, capacity profiles, the
process-wide profile cache, the array DPs) must produce **byte-identical**
Solutions to the from-scratch reference loop of `tests/core/reference.py`
(every subscriber re-solved on its own every iteration, the pure-Python
oracles under Steps 1 and 3) on every workload: all benchmark problem
generators, incumbent-sticky re-solves, every chaos soak scenario and a
storm of link reports through the plane, where each meeting's solves
replay the one before (``tests/core/test_replay.py`` is the solver-level
gate of that).  Equivalence is enforced by pickle-byte comparison plus
equal iteration and reduction sequences, not sampled spot checks.
"""

import importlib.util
import pickle
import sys
from pathlib import Path

import pytest

from repro.core import reduction, solver
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.engine import MckpInstanceCache, default_mckp_cache
from repro.core.knapsack import knapsack_step, solve_subscriber
from repro.core.solver import GsoSolver, SolverConfig, SolveStats

from .reference import assert_solver_matches_reference, reference_solve

_PROBLEMS_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "_problems.py"
)
_spec = importlib.util.spec_from_file_location(
    "_bench_problems", _PROBLEMS_PATH
)
problems = importlib.util.module_from_spec(_spec)
sys.modules["_bench_problems"] = problems
_spec.loader.exec_module(problems)

#: Every benchmark problem generator, at test-sized shapes.  Generators
#: are called fresh per solve so lazily cached Problem state never leaks
#: between the two paths.
GENERATORS = {
    "mesh_small": lambda: problems.mesh_meeting(10, 9, seed=2),
    "mesh_large": lambda: problems.mesh_meeting(16, 12, seed=5),
    "fanout": lambda: problems.fanout_meeting(6, 40, 9, seed=3),
    "gallery": lambda: problems.gallery_meeting(8, 60, 12, seed=4),
    "breakout": lambda: problems.breakout_meeting(5, 5, 12, seed=7),
}


def _webinar(n_viewers=110, uplinks=tuple(350 + 60 * k for k in range(8))):
    """8 publishers in a full mesh plus ``n_viewers`` view-only subscribers
    with as many different downlinks, uplinks tight enough for several KMR
    iterations (eleven deletions by default)."""
    pubs = [f"P{k}" for k in range(8)]
    viewers = [f"V{k:03d}" for k in range(n_viewers)]
    bandwidth = {p: Bandwidth(up, 4000) for p, up in zip(pubs, uplinks)}
    bandwidth.update(
        {v: Bandwidth(500, 600 + 37 * k) for k, v in enumerate(viewers)}
    )
    return Problem(
        {p: problems.ladder_with_levels(9) for p in pubs},
        bandwidth,
        [Subscription(a, b) for a in pubs + viewers for b in pubs if a != b],
    )


def _config(granularity):
    return SolverConfig(granularity_kbps=granularity)


_ENGINE_SOLVE = GsoSolver.solve_with_stats


def _engine(solver, problem, incumbent, warm=None):
    """The unpatched ``GsoSolver`` solve, in ``reference_solve``'s shape.
    ``warm`` is the caller's run: a chaos run's cluster passes each
    meeting's, so these are *replayed* solves wherever a meeting is
    re-decided over the same edges."""
    solution, stats = _ENGINE_SOLVE(
        solver, problem, incumbent=incumbent, warm=warm
    )
    return solution, stats.iterations, stats.reductions


def _reference(solver, problem, incumbent, warm=None):
    return reference_solve(problem, solver.config, incumbent)


def _incumbent(gen, granularity):
    """The assignments of a first solve, as an incumbent map."""
    first = GsoSolver(_config(granularity)).solve(gen())
    return {
        (sub, pub): stream.resolution
        for sub, per_pub in first.assignments.items()
        for pub, stream in per_pub.items()
    }


class TestGeneratorEquivalence:
    """Engine vs the from-scratch loop over the array DPs, which can
    afford the exact grid (granularity 1) on every generator."""

    @pytest.mark.parametrize("granularity", [1, 25])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_solutions_byte_identical(self, name, granularity):
        assert_solver_matches_reference(
            GENERATORS[name], _config(granularity), python_dp=False
        )

    def test_incumbent_stickiness_byte_identical(self):
        gen = GENERATORS["mesh_small"]
        assert_solver_matches_reference(
            gen, _config(25), _incumbent(gen, 25), python_dp=False
        )

    def test_dirty_set_actually_skips_on_partial_followership(self):
        _, stats = GsoSolver(_config(25)).solve_with_stats(
            GENERATORS["breakout"]()
        )
        assert stats.iterations > 1
        assert stats.engine.step1_skipped > 0

    def test_dedup_actually_collapses_on_gallery(self):
        _, stats = GsoSolver(_config(25)).solve_with_stats(
            GENERATORS["gallery"]()
        )
        assert stats.engine.deduped > 0

    def test_process_cache_hits_across_solver_instances(self):
        cache = default_mckp_cache()
        cache.clear()
        GsoSolver(_config(25)).solve(GENERATORS["fanout"]())
        _, stats = assert_solver_matches_reference(
            GENERATORS["fanout"], _config(25), python_dp=False
        )
        assert stats.engine.cache_hits > 0
        assert stats.engine.cache_misses == 0

    def test_exhaustive_step1_bypasses_engine(self):
        cfg = SolverConfig(granularity_kbps=25, exhaustive_step1=True)
        problem = problems.mesh_meeting(5, 6, seed=1)
        _, stats = GsoSolver(cfg).solve_with_stats(problem)
        assert stats.engine.step1_solved == 0
        assert stats.engine.dp_solves_avoided == 0

    def test_memoized_step_with_private_cache_matches(self):
        # knapsack_step with a private cache, against one scalar DP per
        # subscriber, on every generator.
        for name, gen in sorted(GENERATORS.items()):
            problem = gen()
            direct = {
                sub: solve_subscriber(problem, sub, granularity=25)
                for sub in problem.subscribers
            }
            memoized = knapsack_step(
                problem,
                granularity=25,
                cache=MckpInstanceCache(capacity=4096),
            )
            assert pickle.dumps(memoized) == pickle.dumps(direct), name


class TestKernelEquivalence:
    """The array kernel must not change a single Solution byte.

    Engine (vectorized sweeps + the capacity-profile path) against the
    reference loop over the pure-Python oracles, compared by pickle
    bytes on every benchmark generator, without and with an incumbent.
    The process cache is cleared first so every table is built here.
    """

    @pytest.mark.parametrize("sticky", [False, True], ids=["cold", "incumbent"])
    @pytest.mark.parametrize(
        "granularity",
        [1, 25],
        ids=["granularity1", "granularity25"],
    )
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_solutions_byte_identical(self, name, granularity, sticky):
        if granularity == 1 and name != "mesh_small":
            pytest.skip("exact-grid oracle runs only on the small mesh")
        gen = GENERATORS[name]
        incumbent = _incumbent(gen, granularity) if sticky else None
        default_mckp_cache().clear()
        assert_solver_matches_reference(gen, _config(granularity), incumbent)

    def test_kernels_also_agree_with_engine_off(self):
        # The scalar array DPs against the oracles, both under the
        # from-scratch loop.
        array = reference_solve(GENERATORS["fanout"](), _config(25), python_dp=False)
        oracle = reference_solve(GENERATORS["fanout"](), _config(25))
        assert pickle.dumps(array) == pickle.dumps(oracle)

    def test_webinar_builds_one_table_per_class_structure(self):
        # The viewers are one shape and every publisher its own, so
        # however many viewers there are an iteration meets at most 9
        # distinct class structures and builds at most 9 tables.
        problem = _webinar()
        shapes = len(problem.shape_index()[1])
        assert shapes == 9

        default_mckp_cache().clear()
        cfg = SolverConfig(granularity_kbps=25)
        _, stats = GsoSolver(cfg).solve_with_stats(problem)
        engine = stats.engine
        assert stats.iterations > 1
        assert 0 < engine.cache_misses <= stats.iterations * shapes
        assert engine.cache_hits + engine.cache_misses <= stats.iterations * shapes
        assert engine.step1_solved >= len(problem.subscribers)
        assert engine.deduped > 0


class TestIterationCost:
    """A KMR iteration does only the work its reduction made necessary:
    Step 1 re-solves the deleted entry's audience and nobody else, and
    Step 3 runs the fix DP only in the iteration that terminates."""

    #: ``GENERATORS``' meshes have uplinks to spare and never reduce; the
    #: full mesh here is the webinar's eight publishers on their own.
    MEETINGS = {
        "mesh_tight": lambda: _webinar(0),
        "gallery": GENERATORS["gallery"],
        "breakout": GENERATORS["breakout"],
        "webinar": _webinar,
    }

    @pytest.mark.parametrize("name", sorted(MEETINGS))
    def test_dirty_set_is_the_deleted_audience_and_minimal(self, name, monkeypatch):
        problem = self.MEETINGS[name]()
        held = {}  # every subscriber's current request map
        merged = []  # the policies of each iteration's Step 2
        step1, step2 = solver.knapsack_step, solver.merge_step

        def spy_knapsack(*args, subscribers=None, **kwargs):
            requests = step1(*args, subscribers=subscribers, **kwargs)
            if subscribers is not None:
                assert list(requests) == list(subscribers)
                # Minimal: whoever is re-solved held a deleted stream, so
                # its request must come back changed.
                same = [sub for sub in requests if requests[sub] == held[sub]]
                assert not same, same
            held.update(requests)
            return requests

        def spy_merge(*args):
            merged.append(step2(*args))
            return merged[-1]

        monkeypatch.setattr(solver, "knapsack_step", spy_knapsack)
        monkeypatch.setattr(solver, "merge_step", spy_merge)
        _, stats = GsoSolver(_config(25)).solve_with_stats(problem)

        assert stats.iterations > 1
        audiences = sum(
            len(policies[pub][res].audience)
            for policies, (pub, res) in zip(merged, stats.reductions)
        )
        everyone = len(problem.subscribers)
        assert stats.engine.step1_solved - everyone == audiences
        assert stats.engine.step1_skipped == (
            (stats.iterations - 1) * everyone - audiences
        )
        # Even where everyone follows the reduced publisher (full mesh,
        # webinar), not everyone held the deleted stream.
        assert stats.engine.step1_skipped > 0

    def test_fix_dp_runs_only_in_the_terminating_iteration(self, monkeypatch):
        calls = []  # fix_owner calls of the Step 3 in progress
        seen = []  # per iteration: (ended in a reduction, fix_owner calls)
        fix, step3 = reduction.fix_owner, solver.reduction_step

        def spy_fix(*args, **kwargs):
            calls.append(args)
            return fix(*args, **kwargs)

        def spy_step3(*args, **kwargs):
            calls.clear()
            outcome = step3(*args, **kwargs)
            seen.append((not outcome.solved, len(calls)))
            return outcome

        monkeypatch.setattr(reduction, "fix_owner", spy_fix)
        monkeypatch.setattr(solver, "reduction_step", spy_step3)
        fixes = 0
        for name, gen in sorted(self.MEETINGS.items()):
            GsoSolver(_config(25)).solve(gen())
            assert len(seen) > 1, name
            assert [n for reduces, n in seen if reduces] == [0] * (len(seen) - 1)
            fixes += seen[-1][1]
            seen.clear()
        assert fixes > 0, "no terminating iteration had an owner to fix"


class TestChaosEquivalence:
    """The engine must not change a single chaos-run byte."""

    def _run(self, scenario_name, seed, monkeypatch, solve):
        """One chaos run with every ``GsoSolver`` solve answered by
        ``solve(solver, problem, incumbent, warm) -> (solution,
        iterations, reductions)``; returns the run digest and the
        per-solve log."""
        from repro.chaos import ChaosConfig, ChaosRunner, get_scenario

        log = []

        def logged(solver, problem, incumbent=None, warm=None):
            solution, iterations, reductions = solve(
                solver, problem, incumbent, warm
            )
            log.append((pickle.dumps(solution), iterations, reductions))
            return solution, SolveStats(iterations=iterations, reductions=reductions)

        config = ChaosConfig(
            seed=seed, meetings=2, duration_s=4.0, shards=2
        )
        scenario = get_scenario(scenario_name)
        with monkeypatch.context() as patch:
            patch.setattr(GsoSolver, "solve_with_stats", logged)
            runner = ChaosRunner(
                config, scenario.build(seed, config), scenario=scenario.name
            )
            return runner.run().digest(), log

    @pytest.mark.parametrize(
        "scenario",
        sorted(
            s.name
            for s in __import__(
                "repro.chaos", fromlist=["list_scenarios"]
            ).list_scenarios()
        ),
    )
    def test_scenario_digest_identical_with_engine_off(
        self, scenario, monkeypatch
    ):
        # The same seeded run twice: once solved by the engine, once by
        # the reference loop over the python oracles.  Equal digests, and
        # solve by solve equal Solution bytes, iterations and reductions.
        engine_digest, engine_log = self._run(scenario, 11, monkeypatch, _engine)
        assert engine_log, "the scenario never reached the solver"
        reference_digest, reference_log = self._run(
            scenario, 11, monkeypatch, _reference
        )
        assert engine_log == reference_log
        assert engine_digest == reference_digest

    def test_double_run_determinism_with_engine_enabled(self, monkeypatch):
        assert self._run("kitchen_sink", 13, monkeypatch, _engine) == self._run(
            "kitchen_sink", 13, monkeypatch, _engine
        )


class TestReportStormEquivalence:
    """A chaos run re-decides a meeting a handful of times, mostly from
    the cache; a run of link reports is where a meeting's solves follow
    one another over the same edges, so this is the system-level
    differential of the *replayed* solve: plane, cluster and per-meeting
    runs included."""

    DURATION_S = 14.0

    def _run(self, monkeypatch, solve):
        """A seeded storm of link estimates (one client per report, every
        1.1 s per meeting) with every ``GsoSolver`` solve answered by
        ``solve``; returns the per-solve log, how many of those solves
        were handed a run with steps, and the decisions' digests."""
        import random
        from dataclasses import replace

        from repro.chaos.world import ChaosWorld
        from repro.cluster import ClusterConfig, ControllerCluster
        from repro.ingress.aio import SimRuntime
        from repro.ingress.events import LinkEstimate, SembReport, sort_stream
        from repro.ingress.faults import StreamFaultInjector
        from repro.ingress.plane import ClusterBackend, IngressPlane

        world = ChaosWorld(seed=5, meetings=3, mean_size=6.0)
        cluster = ControllerCluster(
            ClusterConfig(shards=2, solver=_config(25))
        )
        events = []
        for meeting_id in world.meeting_ids:
            cluster.register(meeting_id)
            rng = random.Random(f"storm:{meeting_id}")
            clients = sorted(world.meeting(meeting_id).clients)
            t = rng.uniform(0.0, 1.0)
            while t < self.DURATION_S:
                events.append(SembReport(at_s=round(t, 3), meeting=meeting_id))
                events.append(
                    LinkEstimate(
                        at_s=round(t + 0.05, 3),
                        meeting=meeting_id,
                        client=rng.choice(clients),
                        up_scale=round(rng.uniform(0.2, 1.0), 3),
                        down_scale=round(rng.uniform(0.2, 1.0), 3),
                    )
                )
                t += 1.1
        stream = [replace(e, seq=i) for i, e in enumerate(sort_stream(events))]
        log = []
        replayable = []

        def logged(solver, problem, incumbent=None, warm=None):
            replayable.append(warm is not None and bool(warm.steps))
            solution, iterations, reductions = solve(
                solver, problem, incumbent, warm
            )
            log.append((pickle.dumps(solution), iterations, reductions))
            return solution, SolveStats(iterations=iterations, reductions=reductions)

        with monkeypatch.context() as patch:
            patch.setattr(GsoSolver, "solve_with_stats", logged)
            plane = IngressPlane(SimRuntime(), ClusterBackend(cluster, world))
            plane.run_stream(
                stream, StreamFaultInjector(()), duration_s=self.DURATION_S
            )
        assert {d.source for d in plane.decisions} <= {"solve", "cache"}
        return log, sum(replayable), [d.digest for d in plane.decisions]

    def test_replayed_solves_match_the_reference_solve_by_solve(self, monkeypatch):
        engine_log, replayable, engine_digests = self._run(monkeypatch, _engine)
        # 38 solves, 29 of them handed a run with steps.
        assert replayable > len(engine_log) // 2, (replayable, len(engine_log))
        reference_log, _, reference_digests = self._run(monkeypatch, _reference)
        assert engine_log == reference_log
        assert engine_digests == reference_digests
