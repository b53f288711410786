"""Solution cache: LRU bounds, read-only sharing, metrics."""

import pickle

import pytest

from repro.cluster import SolutionCache
from repro.core.solver import GsoSolver, SolverConfig
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry

from .conftest import mesh_problem


SOLVER = GsoSolver(SolverConfig(granularity_kbps=25))


def solved(ups=(5000, 5000, 500)):
    """A problem and its frozen solution, as the cluster would store it."""
    problem = mesh_problem(ups=ups)
    return problem, SOLVER.solve(problem).freeze()


class TestLookup:
    def test_miss_then_hit(self):
        _, solution = solved()
        cache = SolutionCache(capacity=4)
        assert cache.get("fp-a") is None
        cache.put("fp-a", solution)
        hit = cache.get("fp-a")
        assert hit is not None
        assert pickle.dumps(hit) == pickle.dumps(solution)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_contains_and_len(self):
        _, solution = solved()
        cache = SolutionCache(capacity=4)
        cache.put("fp-a", solution)
        assert "fp-a" in cache and "fp-b" not in cache
        assert len(cache) == 1

    def test_hit_is_the_stored_object(self):
        _, solution = solved()
        cache = SolutionCache(capacity=4)
        cache.put("fp-a", solution)
        assert cache.get("fp-a") is solution
        assert cache.get("fp-a") is cache.get("fp-a")

    def test_mutable_solution_is_refused(self):
        problem, _ = solved()
        cache = SolutionCache(capacity=4)
        with pytest.raises(ValueError):
            cache.put("fp-a", SOLVER.solve(problem))
        assert len(cache) == 0

    def test_clear_keeps_stats(self):
        _, solution = solved()
        cache = SolutionCache(capacity=4)
        cache.put("fp-a", solution)
        cache.get("fp-a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1


class TestLru:
    def test_eviction_order(self):
        _, solution = solved()
        cache = SolutionCache(capacity=2)
        cache.put("fp-a", solution)
        cache.put("fp-b", solution)
        cache.get("fp-a")  # refresh a; b is now least-recent
        cache.put("fp-c", solution)
        assert "fp-a" in cache and "fp-c" in cache
        assert "fp-b" not in cache
        assert cache.stats.evictions == 1

    def test_put_refresh_counts_as_recent(self):
        _, solution = solved()
        cache = SolutionCache(capacity=2)
        cache.put("fp-a", solution)
        cache.put("fp-b", solution)
        cache.put("fp-a", solution)  # refresh, not insert
        cache.put("fp-c", solution)
        assert "fp-a" in cache and "fp-b" not in cache

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SolutionCache(capacity=0)


def mutation_attempts(solution):
    """Every way in: both dict levels, the list, the fields themselves."""
    sub = next(iter(solution.assignments))
    pub = next(iter(solution.policies))
    return [
        lambda: solution.assignments.clear(),
        lambda: solution.policies.clear(),
        lambda: solution.assignments[sub].clear(),
        lambda: solution.policies[pub].clear(),
        lambda: solution.assignments.__setitem__("ghost", {}),
        lambda: solution.policies[pub].__delitem__(next(iter(solution.policies[pub]))),
        lambda: solution.reduced.append(("A", None)),
        lambda: setattr(solution, "assignments", {}),
        lambda: setattr(solution, "iterations", 99),
        lambda: delattr(solution, "policies"),
    ]


class TestIsolation:
    """A hit shares the stored object; what keeps one meeting from
    corrupting another's hit is that nobody can write to it."""

    def test_hit_mutation_does_not_corrupt_store(self):
        problem, solution = solved()
        original = pickle.dumps(SOLVER.solve(problem))
        cache = SolutionCache(capacity=4)
        cache.put("fp-a", solution)
        for attempt in mutation_attempts(cache.get("fp-a")):
            with pytest.raises((TypeError, AttributeError)):
                attempt()
        second = cache.get("fp-a")
        assert second.assignments and second.policies
        assert pickle.dumps(second) == original

    def test_caller_mutation_after_put_does_not_corrupt_store(self):
        problem, solution = solved()
        original = pickle.dumps(SOLVER.solve(problem))
        cache = SolutionCache(capacity=4)
        cache.put("fp-a", solution)
        for attempt in mutation_attempts(solution):
            with pytest.raises((TypeError, AttributeError)):
                attempt()
        assert pickle.dumps(cache.get("fp-a")) == original


class TestMetrics:
    def test_hit_miss_eviction_counters(self):
        _, solution = solved()
        with enabled_registry() as reg:
            cache = SolutionCache(capacity=1)
            cache.get("fp-a")
            cache.put("fp-a", solution)
            cache.get("fp-a")
            cache.put("fp-b", solution)  # evicts fp-a
            assert reg.counter(obs_names.CLUSTER_CACHE, result="miss").value == 1
            assert reg.counter(obs_names.CLUSTER_CACHE, result="hit").value == 1
            assert reg.counter(obs_names.CLUSTER_CACHE_EVICTIONS).value == 1
            assert reg.gauge(obs_names.CLUSTER_CACHE_ENTRIES).value == 1
