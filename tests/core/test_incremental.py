"""Differential equivalence of the incremental solve engine.

The engine (`repro.core.engine` + the dirty-set loop in GsoSolver) must
produce **byte-identical** Solutions to the `incremental=False` path on
every workload: all benchmark problem generators, incumbent-sticky
re-solves, and every chaos soak scenario.  Equivalence is enforced by
pickle-byte comparison, not sampled spot checks.
"""

import importlib.util
import pickle
import sys
from pathlib import Path

import pytest

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.engine import MckpInstanceCache, default_mckp_cache
from repro.core.solver import GsoSolver, SolverConfig

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


def _solve(gen, granularity, incremental, incumbent=None, **config):
    cfg = SolverConfig(
        granularity_kbps=granularity, incremental=incremental, **config
    )
    return GsoSolver(cfg).solve_with_stats(gen(), incumbent=incumbent)


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("granularity", [1, 25])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_solutions_byte_identical(self, name, granularity):
        base_sol, base_stats = _solve(GENERATORS[name], granularity, False)
        inc_sol, inc_stats = _solve(GENERATORS[name], granularity, True)
        assert pickle.dumps(inc_sol) == pickle.dumps(base_sol)
        assert inc_stats.iterations == base_stats.iterations
        assert inc_stats.reductions == base_stats.reductions

    def test_incumbent_stickiness_byte_identical(self):
        gen = GENERATORS["mesh_small"]
        first = GsoSolver(SolverConfig(granularity_kbps=25)).solve(gen())
        incumbent = {
            (sub, pub): stream.resolution
            for sub, per_pub in first.assignments.items()
            for pub, stream in per_pub.items()
        }
        base_sol, _ = _solve(gen, 25, False, incumbent=incumbent)
        inc_sol, _ = _solve(gen, 25, True, incumbent=incumbent)
        assert pickle.dumps(inc_sol) == pickle.dumps(base_sol)

    def test_dirty_set_actually_skips_on_partial_followership(self):
        _, stats = _solve(GENERATORS["breakout"], 25, True)
        assert stats.iterations > 1
        assert stats.engine.step1_skipped > 0

    def test_dedup_actually_collapses_on_gallery(self):
        _, stats = _solve(GENERATORS["gallery"], 25, True)
        assert stats.engine.deduped > 0

    def test_process_cache_hits_across_solver_instances(self):
        # The profile cache belongs to the array kernel; the oracle
        # kernel never reads it.
        cache = default_mckp_cache()
        cache.clear()
        _solve(GENERATORS["fanout"], 25, True, kernel="numpy")
        base_sol, _ = _solve(GENERATORS["fanout"], 25, False)
        inc_sol, stats = _solve(GENERATORS["fanout"], 25, True, kernel="numpy")
        assert stats.engine.cache_hits > 0
        assert stats.engine.cache_misses == 0
        assert pickle.dumps(inc_sol) == pickle.dumps(base_sol)

    def test_escape_hatch_bypasses_engine(self):
        _, stats = _solve(GENERATORS["breakout"], 25, False)
        assert stats.engine.step1_solved == 0
        assert stats.engine.dp_solves_avoided == 0

    def test_exhaustive_step1_bypasses_engine(self):
        cfg = SolverConfig(
            granularity_kbps=25, exhaustive_step1=True, incremental=True
        )
        problem = problems.mesh_meeting(5, 6, seed=1)
        _, stats = GsoSolver(cfg).solve_with_stats(problem)
        assert stats.engine.step1_solved == 0

    def test_memoized_step_with_private_cache_matches(self):
        # knapsack_step's memoized path with a private cache, against
        # the direct path, on every generator.
        from repro.core.knapsack import knapsack_step

        for name, gen in sorted(GENERATORS.items()):
            problem = gen()
            direct = knapsack_step(problem, granularity=25)
            memoized = knapsack_step(
                problem,
                granularity=25,
                dedup=True,
                cache=MckpInstanceCache(capacity=4096),
            )
            assert pickle.dumps(memoized) == pickle.dumps(direct), name


class TestKernelEquivalence:
    """The array kernel must not change a single Solution byte.

    ``kernel="numpy"`` (vectorized sweeps + the capacity-profile path)
    against ``kernel="python"`` (the differential oracle), compared by
    pickle bytes on every benchmark generator.  The process cache is
    cleared before each solve so neither kernel replays the other's
    cached solutions.
    """

    def _solve_cold(self, gen, granularity, kernel):
        default_mckp_cache().clear()
        cfg = SolverConfig(granularity_kbps=granularity, kernel=kernel)
        return GsoSolver(cfg).solve_with_stats(gen())

    @pytest.mark.parametrize(
        "granularity",
        [1, 25],
        ids=["granularity1", "granularity25"],
    )
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_solutions_byte_identical(self, name, granularity):
        if granularity == 1 and name != "mesh_small":
            pytest.skip("exact-grid oracle runs only on the small mesh")
        py_sol, py_stats = self._solve_cold(
            GENERATORS[name], granularity, "python"
        )
        np_sol, np_stats = self._solve_cold(
            GENERATORS[name], granularity, "numpy"
        )
        assert pickle.dumps(np_sol) == pickle.dumps(py_sol)
        assert np_stats.iterations == py_stats.iterations
        assert np_stats.reductions == py_stats.reductions

    def test_kernels_also_agree_with_engine_off(self):
        for kernel in ("python", "numpy"):
            cfg = SolverConfig(
                granularity_kbps=25, incremental=False, kernel=kernel
            )
            sol = GsoSolver(cfg).solve(GENERATORS["fanout"]())
            if kernel == "python":
                reference = pickle.dumps(sol)
        assert pickle.dumps(sol) == reference

    def test_webinar_builds_one_table_per_class_structure(self):
        # A webinar: 8 publishers in a mesh plus 110 view-only subscribers
        # with 110 different downlinks, uplinks tight enough for several
        # KMR iterations.  The viewers are one shape and every publisher
        # its own, so however many viewers there are an iteration meets at
        # most 9 distinct class structures and builds at most 9 tables.
        pubs = [f"P{k}" for k in range(8)]
        viewers = [f"V{k:03d}" for k in range(110)]
        bandwidth = {p: Bandwidth(350 + 60 * k, 4000) for k, p in enumerate(pubs)}
        bandwidth.update(
            {v: Bandwidth(500, 600 + 37 * k) for k, v in enumerate(viewers)}
        )
        problem = Problem(
            {p: problems.ladder_with_levels(9) for p in pubs},
            bandwidth,
            [Subscription(a, b) for a in pubs + viewers for b in pubs if a != b],
        )
        shapes = len(problem.shape_index()[1])
        assert shapes == 9

        default_mckp_cache().clear()
        cfg = SolverConfig(granularity_kbps=25, kernel="numpy")
        _, stats = GsoSolver(cfg).solve_with_stats(problem)
        engine = stats.engine
        assert stats.kernel == "numpy"
        assert stats.iterations > 1
        assert 0 < engine.cache_misses <= stats.iterations * shapes
        assert engine.cache_hits + engine.cache_misses <= stats.iterations * shapes
        assert engine.step1_solved >= len(problem.subscribers)
        assert engine.deduped > 0

    def test_stats_report_configured_kernel(self):
        _, stats = self._solve_cold(GENERATORS["mesh_small"], 25, "python")
        assert stats.kernel == "python"

    def test_env_default_kernel_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert SolverConfig().kernel == "python"
        monkeypatch.delenv("REPRO_KERNEL")
        assert SolverConfig().kernel == "numpy"


class TestChaosEquivalence:
    """The engine must not change a single chaos-run byte."""

    def _digest(self, scenario_name, seed):
        from repro.chaos import ChaosConfig, ChaosRunner, get_scenario

        config = ChaosConfig(
            seed=seed, meetings=2, duration_s=4.0, shards=2
        )
        scenario = get_scenario(scenario_name)
        runner = ChaosRunner(
            config, scenario.build(seed, config), scenario=scenario.name
        )
        return runner.run().digest()

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
        import repro.chaos.runner as chaos_runner

        engine_on = self._digest(scenario, seed=11)
        real_config = SolverConfig

        def no_engine(*args, **kwargs):
            kwargs["incremental"] = False
            return real_config(*args, **kwargs)

        monkeypatch.setattr(chaos_runner, "SolverConfig", no_engine)
        engine_off = self._digest(scenario, seed=11)
        assert engine_on == engine_off

    @pytest.mark.parametrize(
        "scenario",
        sorted(
            s.name
            for s in __import__(
                "repro.chaos", fromlist=["list_scenarios"]
            ).list_scenarios()
        ),
    )
    def test_scenario_digest_identical_with_python_kernel(
        self, scenario, monkeypatch
    ):
        # The chaos runner builds its SolverConfig internally, so the
        # oracle kernel is selected through the environment default.
        numpy_digest = self._digest(scenario, seed=11)
        monkeypatch.setenv("REPRO_KERNEL", "python")
        default_mckp_cache().clear()
        assert self._digest(scenario, seed=11) == numpy_digest

    def test_double_run_determinism_with_engine_enabled(self):
        assert self._digest("kitchen_sink", seed=13) == self._digest(
            "kitchen_sink", seed=13
        )
