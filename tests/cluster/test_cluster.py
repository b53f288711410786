"""End-to-end controller cluster: equivalence, failover, overload."""

import pickle
from types import SimpleNamespace

import pytest

from repro.cluster import (
    ClusterConfig,
    ControllerCluster,
    SOURCE_CACHE,
    SOURCE_FALLBACK,
    SOURCE_SHED,
    SOURCE_SOLVE,
    TRIGGER_REHOME,
    TRIGGER_TIME,
)
from repro.chaos.world import ChaosWorld
from repro.cluster import cluster as cluster_module
from repro.control.failover import single_stream_fallback
from repro.core import constraints
from repro.core import solver as solver_module
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.types import Resolution
from repro.core.explain import explain_solve
from repro.core.solver import GsoSolver, KmrRun, SolverConfig
from repro.ingress.aio import SimRuntime
from repro.ingress.events import SembReport
from repro.ingress.plane import ClusterBackend, IngressPlane
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry

from .conftest import mesh_problem

DIRECT = GsoSolver(SolverConfig(granularity_kbps=25))


def make_cluster(**overrides):
    defaults = dict(shards=3)
    defaults.update(overrides)
    return ControllerCluster(ClusterConfig(**defaults))


def distinct_problems(n):
    """n structurally distinct meetings (different slow-client uplinks)."""
    return [mesh_problem(ups=(5000, 5000, 400 + 50 * i)) for i in range(n)]


class TestSolveService:
    def test_sync_path_matches_direct_solver(self, problem):
        with make_cluster() as cluster:
            served = cluster.solve_request("conf-1", problem, now_s=0.0)
            assert served.source == SOURCE_SOLVE
            assert pickle.dumps(served.solution) == pickle.dumps(
                DIRECT.solve(problem)
            )

    def test_cache_hit_across_meetings(self, problem):
        with make_cluster() as cluster:
            a = cluster.solve_request("conf-a", problem, now_s=0.0)
            b = cluster.solve_request("conf-b", problem, now_s=0.0)
            assert (a.source, b.source) == (SOURCE_SOLVE, SOURCE_CACHE)
            assert pickle.dumps(a.solution) == pickle.dumps(b.solution)
            assert cluster.cache.stats.hits == 1
            assert cluster.cache.stats.misses == 1
            assert cluster.meeting("conf-b").cache_hits == 1

    def test_cache_disabled_still_correct(self, problem):
        with make_cluster(cache_capacity=0) as cluster:
            assert cluster.cache is None
            got = cluster.solve_request("conf-1", problem, now_s=0.0).solution
            assert pickle.dumps(got) == pickle.dumps(DIRECT.solve(problem))
            # Nothing to share: a re-decision is a second solve.
            again = cluster.solve_request("conf-1", problem, now_s=1.0)
            assert again.source == SOURCE_SOLVE
            assert again.solution is not got and again.solution == got

    def test_unchanged_problem_object_redecides_without_rederiving(
        self, problem, monkeypatch
    ):
        """Same ``Problem`` object again: no hash, no cost refresh, and the
        very solution object the first decision was served."""
        with make_cluster() as cluster:
            first = cluster.solve_request("conf-1", problem, now_s=0.0)
            loads = cluster.load_model.loads()

            def unexpected(*args, **kwargs):
                raise AssertionError("re-derived an unchanged meeting's identity")

            monkeypatch.setattr(
                constraints, "hashlib", SimpleNamespace(sha256=unexpected)
            )
            monkeypatch.setattr(cluster_module, "meeting_cost", unexpected)
            again = cluster.solve_request("conf-1", problem, now_s=1.0)
            assert (first.source, again.source) == (SOURCE_SOLVE, SOURCE_CACHE)
            assert again.solution is first.solution
            assert cluster.load_model.loads() == loads
            assert cluster.meeting("conf-1").last_solution is first.solution

    def test_changed_picture_refreshes_the_load_model(self):
        small, large = mesh_problem(), mesh_problem(ups=(5000,) * 4, downs=(3000,) * 4)
        with make_cluster() as cluster:
            shard = cluster.solve_request("conf-1", small, now_s=0.0).shard
            before = cluster.load_model.load(shard)
            cluster.solve_request("conf-1", large, now_s=1.0)
            assert cluster.load_model.load(shard) > before

    def test_served_solutions_are_read_only(self, problem, monkeypatch):
        with make_cluster() as cluster:
            served = [cluster.solve_request("conf-1", problem, now_s=0.0)]
            served.append(cluster.solve_request("conf-2", problem, now_s=0.0))
            served.append(cluster.shed_request("conf-3", problem, now_s=0.0))
            monkeypatch.setattr(cluster.pool, "solve", None)  # a solver that crashes
            served.append(
                cluster.solve_request("conf-4", mesh_problem(ups=(900,) * 3), now_s=0.0)
            )
            assert [s.source for s in served] == [
                SOURCE_SOLVE, SOURCE_CACHE, SOURCE_SHED, SOURCE_FALLBACK,
            ]
            for s in served:
                assert s.solution.is_frozen
                with pytest.raises(TypeError):
                    s.solution.assignments["c0"] = {}
                with pytest.raises(AttributeError):
                    s.solution.policies = {}

    def test_solver_crash_degrades_to_fallback(self, problem, monkeypatch):
        with make_cluster() as cluster:
            def boom(*args, **kwargs):
                raise RuntimeError("solver died")

            monkeypatch.setattr(cluster.pool, "solve", boom)
            served = cluster.solve_request("conf-1", problem, now_s=0.0)
            want = single_stream_fallback(problem)
            assert served.source == SOURCE_FALLBACK
            assert pickle.dumps(served.solution) == pickle.dumps(want)
            assert cluster.meeting("conf-1").fallbacks == 1


class TestTickLoop:
    """One meeting through the loop: solve, debounce, cache; and the
    cluster's half of admission."""

    WORLD_SEED = 1

    def plane_on(self, cluster):
        world = ChaosWorld(seed=self.WORLD_SEED, meetings=1)
        return IngressPlane(SimRuntime(), ClusterBackend(cluster, world))

    def test_event_tick_solves_and_debounces(self):
        problem = ChaosWorld(
            seed=self.WORLD_SEED, meetings=1
        ).current_problem("chaos-0")
        with make_cluster() as cluster:
            plane = self.plane_on(cluster)
            # The second report lands within the min-interval envelope of
            # the first decision: nothing re-runs until it has passed.
            plane.run_stream(
                [SembReport(0.0, "chaos-0"), SembReport(1.2, "chaos-0", seq=1)],
                duration_s=2.0,
            )
            first, again = plane.decisions
            assert first.source == SOURCE_SOLVE
            assert pickle.dumps(first.solution) == pickle.dumps(
                DIRECT.solve(problem)
            )
            assert again.source == SOURCE_CACHE
            assert again.decided_at_s - first.decided_at_s >= (
                cluster.config.min_interval_s
            )

    def test_time_trigger_refreshes_idle_meetings(self):
        with enabled_registry() as reg, make_cluster() as cluster:
            plane = self.plane_on(cluster)
            plane.run_stream([SembReport(0.0, "chaos-0")], duration_s=5.0)
            assert [d.trigger for d in plane.decisions] == [
                "event", TRIGGER_TIME,
            ]
            # The refresh reached the solve service under its own trigger
            # and was served from the cache.
            assert reg.counter(
                obs_names.CLUSTER_SOLVE_REQUESTS, trigger=TRIGGER_TIME
            ).value == 1
            assert plane.decisions[1].source == SOURCE_CACHE

    def test_coalesced_churn_costs_one_solve(self):
        with make_cluster(cache_capacity=0) as cluster:
            plane = self.plane_on(cluster)
            plane.run_stream(
                [SembReport(0.1 * i, "chaos-0", seq=i) for i in range(5)],
                duration_s=1.0,
            )
            assert plane.stats.enqueued == 5
            record = cluster.meeting("chaos-0")
            assert record.solves == 1  # five reports, one solve
            assert cluster.stats()["shards"][record.shard]["solves"] == 1

    def test_admission_sheds_to_fallback(self):
        problems = distinct_problems(3)
        with make_cluster(shards=1, max_solves_per_round=1) as cluster:
            # One solve in flight fills the shard's budget: the plane
            # asks, then sheds what does not fit.
            assert not cluster.over_budget("m0", in_flight=0)
            served = [cluster.solve_request("m0", problems[0], now_s=1.0)]
            for i in (1, 2):
                assert cluster.over_budget(f"m{i}", in_flight=1)
                served.append(
                    cluster.shed_request(f"m{i}", problems[i], now_s=1.0)
                )
            assert [s.source for s in served] == [
                SOURCE_SOLVE, SOURCE_SHED, SOURCE_SHED,
            ]
            for s in served[1:]:
                record = cluster.meeting(s.meeting_id)
                want = single_stream_fallback(record.last_problem)
                assert pickle.dumps(s.solution) == pickle.dumps(want)
            assert cluster.stats()["shards"]["shard-0"]["shed"] == 2



class TestShardFailover:
    """Sec. 7 under cluster rehash: kill -> fallback -> re-home -> recover."""

    def hosted_cluster(self, n_meetings=8):
        cluster = make_cluster(shards=3)
        problems = distinct_problems(n_meetings)
        for i, problem in enumerate(problems):
            cluster.solve_request(f"m{i}", problem, now_s=0.0)
        return cluster

    def test_kill_degrades_victims_to_single_stream_fallback(self):
        cluster = self.hosted_cluster()
        with cluster:
            victim = cluster.meeting("m0").shard
            affected = [
                m for m in cluster.meetings
                if cluster.meeting(m).shard == victim
            ]
            served = cluster.kill_shard(victim, now_s=1.0)
            assert sorted(s.meeting_id for s in served) == affected
            for s in served:
                assert s.source == SOURCE_FALLBACK
                assert s.trigger == TRIGGER_REHOME
                record = cluster.meeting(s.meeting_id)
                want = single_stream_fallback(record.last_problem)
                assert pickle.dumps(record.last_solution) == pickle.dumps(want)
                assert record.shard != victim
                assert record.shard in cluster.live_shards

    def test_survivors_untouched(self):
        cluster = self.hosted_cluster()
        with cluster:
            victim = cluster.meeting("m0").shard
            before = {
                m: (cluster.meeting(m).shard,
                    pickle.dumps(cluster.meeting(m).last_solution))
                for m in cluster.meetings
                if cluster.meeting(m).shard != victim
            }
            cluster.kill_shard(victim, now_s=1.0)
            for m, (shard, solution_bytes) in before.items():
                assert cluster.meeting(m).shard == shard
                assert pickle.dumps(
                    cluster.meeting(m).last_solution
                ) == solution_bytes

    def test_recovery_to_full_kmr_solution(self):
        cluster = self.hosted_cluster()
        with cluster:
            victim = cluster.meeting("m0").shard
            cluster.kill_shard(victim, now_s=1.0)
            # The meeting's next decision on its new shard re-converges.
            record = cluster.meeting("m0")
            served = cluster.solve_request(
                "m0", record.last_problem, now_s=2.5
            )
            assert served.shard == record.shard != victim
            want = DIRECT.solve(record.last_problem)
            assert pickle.dumps(record.last_solution) == pickle.dumps(want)

    def test_killing_any_single_shard_never_raises(self):
        for victim_index in range(3):
            cluster = self.hosted_cluster()
            with cluster:
                victim = cluster.live_shards[victim_index]
                cluster.kill_shard(victim, now_s=1.0)  # must not raise
                assert victim not in cluster.live_shards
                for m in cluster.meetings:
                    record = cluster.meeting(m)
                    cluster.solve_request(m, record.last_problem, now_s=2.5)
                    want = DIRECT.solve(record.last_problem)
                    assert pickle.dumps(record.last_solution) == pickle.dumps(
                        want
                    )

    def test_kill_last_shard_rejected(self, problem):
        with make_cluster(shards=1) as cluster:
            cluster.solve_request("conf-1", problem, now_s=0.0)
            with pytest.raises(RuntimeError):
                cluster.kill_shard("shard-0", now_s=0.0)

    def test_kill_unknown_shard_rejected(self):
        with make_cluster() as cluster:
            with pytest.raises(ValueError):
                cluster.kill_shard("shard-99", now_s=0.0)
            cluster.kill_shard("shard-1", now_s=0.0)
            with pytest.raises(ValueError):  # already dead
                cluster.kill_shard("shard-1", now_s=0.0)

    def test_failover_metrics(self):
        with enabled_registry() as reg:
            cluster = self.hosted_cluster()
            with cluster:
                victim = cluster.meeting("m0").shard
                served = cluster.kill_shard(victim, now_s=1.0)
                assert (
                    reg.counter(obs_names.CLUSTER_SHARD_FAILOVERS).value == 1
                )
                assert reg.counter(obs_names.CLUSTER_REHOMED).value >= len(
                    served
                )
                assert reg.counter(obs_names.CLUSTER_FALLBACKS).value == len(
                    served
                )


class TestRebalance:
    def test_add_shard_moves_only_captured_meetings(self):
        cluster = make_cluster(shards=2)
        with cluster:
            problems = distinct_problems(8)
            for i, problem in enumerate(problems):
                cluster.solve_request(f"m{i}", problem, now_s=0.0)
            before = {m: cluster.meeting(m).shard for m in cluster.meetings}
            name = cluster.add_shard(now_s=1.0)
            assert name in cluster.live_shards
            for m, old_shard in before.items():
                new_shard = cluster.meeting(m).shard
                assert new_shard in (old_shard, name)

    def test_duplicate_add_rejected(self):
        with make_cluster() as cluster:
            with pytest.raises(ValueError):
                cluster.add_shard("shard-0")


class TestMeetingRun:
    """Each hosted meeting owns the run its solves replay, and the run
    dies with the controller state it is part of."""

    #: One ladder for every picture, as a world keeps it: a replay needs
    #: the very same ``StreamSpec`` objects (``mesh_problem`` builds new
    #: ones per call, and such pictures are solved cold).
    LADDER = paper_ladder()

    @classmethod
    def reports(cls, n, start=0):
        """``n`` pictures of one four-party mesh, a downlink and an uplink
        moved between each: same edge objects, so one topology."""
        ids = [f"c{k}" for k in range(4)]
        edges = [Subscription(a, b, Resolution.P720) for a in ids for b in ids if a != b]
        return [
            Problem(
                {cid: cls.LADDER for cid in ids},
                {
                    "c0": Bandwidth(700 + 13 * (k % 3), 3000),
                    "c1": Bandwidth(5000, 900 + 37 * k),
                    "c2": Bandwidth(420, 3000),
                    "c3": Bandwidth(380, 2500),
                },
                edges,
            )
            for k in range(start, start + n)
        ]

    @staticmethod
    def step1_answers(cluster, meeting_id, problem, now_s):
        """Serve one decision; returns it with the Step-1 answers its
        solve computed, as a share of what a cold solve computes."""
        solved = []
        solve = GsoSolver.solve_with_stats

        def counting(solver, problem, incumbent=None, warm=None):
            solution, stats = solve(solver, problem, incumbent=incumbent, warm=warm)
            solved.append(stats.engine.step1_solved)
            return solution, stats

        cluster.pool.solve_with_stats = counting.__get__(cluster.pool)
        try:
            served = cluster.solve_request(meeting_id, problem, now_s=now_s)
        finally:
            del cluster.pool.solve_with_stats
        _, cold = DIRECT.solve_with_stats(problem)
        return served, solved[0] / cold.engine.step1_solved

    def assert_exact(self, served, problem):
        assert served.source == SOURCE_SOLVE
        assert pickle.dumps(served.solution) == pickle.dumps(DIRECT.solve(problem))

    def test_a_redecided_meeting_replays_and_serves_what_a_cold_solve_would(self):
        pictures = self.reports(6)
        with make_cluster() as cluster:
            answers = []
            for k, problem in enumerate(pictures):
                served, solved = self.step1_answers(cluster, "conf-1", problem, float(k))
                self.assert_exact(served, problem)
                answers.append(solved)
            run = cluster.meeting("conf-1").run
            assert run.problem is pictures[-1] and run.steps
            # Two solves remember, the third in a row records, the rest replay.
            assert answers[:3] == [1.0, 1.0, 1.0]
            assert max(answers[3:]) < 1.0
            # What ``trace show --cid`` narrates for a replayed decision is
            # a cold solve of its Problem: same iterations, same deletions.
            told = explain_solve(pictures[-1], cluster.config.solver)
            assert pickle.dumps(told.solution) == pickle.dumps(served.solution)
            assert told.solution.reduced and str(told).count("unfixable") == len(
                served.solution.reduced
            )

    def test_meetings_sharing_a_topology_keep_their_own_runs(self):
        ours, theirs = self.reports(3), self.reports(3, start=7)
        with make_cluster() as cluster:
            for k in range(3):
                self.assert_exact(
                    cluster.solve_request("ours", ours[k], now_s=float(k)), ours[k]
                )
                self.assert_exact(
                    cluster.solve_request("theirs", theirs[k], now_s=float(k)), theirs[k]
                )
            assert ours[0].same_topology(theirs[0])
            assert cluster.meeting("ours").run.problem is ours[-1]
            assert cluster.meeting("theirs").run.problem is theirs[-1]

    def test_a_solve_that_raises_leaves_the_run_usable(self, monkeypatch):
        pictures = self.reports(5)
        with make_cluster() as cluster:
            for k in range(3):
                cluster.solve_request("conf-1", pictures[k], now_s=float(k))
            run = cluster.meeting("conf-1").run
            kept = (run.problem, run.steps)

            def refuse(meeting_id, problem):
                raise RuntimeError("injected")

            cluster.solve_interceptor = refuse
            assert cluster.solve_request(
                "conf-1", pictures[3], now_s=3.0
            ).source == SOURCE_FALLBACK
            cluster.solve_interceptor = None
            with monkeypatch.context() as patch:
                patch.setattr(solver_module, "reduction_step", refuse)
                assert cluster.solve_request(
                    "conf-1", pictures[3], now_s=3.5
                ).source == SOURCE_FALLBACK
            assert cluster.meeting("conf-1").run is run
            assert (run.problem, run.steps) == kept
            served, solved = self.step1_answers(cluster, "conf-1", pictures[4], 4.0)
            self.assert_exact(served, pictures[4])
            assert solved < 1.0

    def test_a_shed_and_a_cache_hit_do_not_touch_the_run(self):
        pictures = self.reports(4)
        with make_cluster() as cluster:
            for k in range(3):
                cluster.solve_request("conf-1", pictures[k], now_s=float(k))
            run = cluster.meeting("conf-1").run
            kept = (run.problem, run.steps)
            assert cluster.shed_request(
                "conf-1", pictures[3], now_s=3.0
            ).source == SOURCE_SHED
            assert cluster.solve_request(
                "conf-1", pictures[1], now_s=4.0
            ).source == SOURCE_CACHE
            assert cluster.meeting("conf-1").run is run
            assert (run.problem, run.steps) == kept
            # The run is two pictures old now, and still exact.
            served, solved = self.step1_answers(cluster, "conf-1", pictures[3], 5.0)
            self.assert_exact(served, pictures[3])
            assert solved < 1.0

    @pytest.mark.parametrize("how", ["migrate_meeting", "kill_shard"])
    def test_a_rehomed_meeting_starts_from_nothing(self, how):
        pictures = self.reports(4)
        with make_cluster() as cluster:
            for k in range(3):
                cluster.solve_request("conf-1", pictures[k], now_s=float(k))
            record = cluster.meeting("conf-1")
            left_behind = record.run
            assert left_behind.steps
            if how == "kill_shard":
                cluster.kill_shard(record.shard, now_s=3.0)
            else:
                target = next(s for s in cluster.live_shards if s != record.shard)
                cluster.migrate_meeting("conf-1", target, now_s=3.0, degrade=False)
            assert record.run is not left_behind
            assert record.run.problem is None and record.run.steps == ()
            served, solved = self.step1_answers(cluster, "conf-1", pictures[3], 4.0)
            self.assert_exact(served, pictures[3])
            assert solved == 1.0
            assert isinstance(record.run, KmrRun) and record.run.problem is pictures[3]


class TestStats:
    def test_snapshot_shape(self, problem):
        with make_cluster() as cluster:
            cluster.solve_request("conf-1", problem, now_s=0.0)
            stats = cluster.stats()
            assert stats["meetings"] == 1
            assert stats["live_shards"] == ["shard-0", "shard-1", "shard-2"]
            assert stats["cache"]["misses"] == 1
            assert set(stats["shards"]) == {"shard-0", "shard-1", "shard-2"}

    def test_solve_entry_points_are_solve_and_shed(self):
        entry = {
            name
            for name in vars(ControllerCluster)
            if name.startswith(("solve", "shed", "submit", "tick"))
        }
        assert entry == {"solve_request", "shed_request"}

    def test_registration_idempotent(self, problem):
        with make_cluster() as cluster:
            first = cluster.register("m1")
            assert cluster.register("m1") == first
            assert cluster.meetings == ["m1"]
