"""A meeting's last-solve memo: a hit is the stored object, read-only."""

import pickle

import pytest

from repro.cluster import SOURCE_CACHE, SOURCE_SOLVE, ClusterConfig, ControllerCluster
from repro.core.solver import GsoSolver, SolverConfig

from .conftest import mesh_problem


SOLVER = GsoSolver(SolverConfig(granularity_kbps=25))


def solved_on_cluster(cluster, ups=(5000, 5000, 500)):
    """A problem, solved once through the cluster so its meeting memoises it."""
    problem = mesh_problem(ups=ups)
    served = cluster.solve_request("conf-1", problem, now_s=0.0)
    assert served.source == SOURCE_SOLVE
    return problem, served.solution


def hit(cluster, problem, now_s=1.0):
    served = cluster.solve_request("conf-1", problem, now_s=now_s)
    assert served.source == SOURCE_CACHE
    return served.solution


class TestLookup:
    def test_hit_is_the_stored_object(self):
        with ControllerCluster(ClusterConfig(shards=2)) as cluster:
            problem, solution = solved_on_cluster(cluster)
            assert cluster.meeting("conf-1").memo == (problem, solution)
            assert hit(cluster, problem) is solution
            assert hit(cluster, problem, 2.0) is hit(cluster, problem, 3.0)


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
    """A hit shares the memoised object; what keeps a caller from
    corrupting the meeting's next hit is that nobody can write to it."""

    def test_hit_mutation_does_not_corrupt_store(self):
        with ControllerCluster(ClusterConfig(shards=2)) as cluster:
            problem, _ = solved_on_cluster(cluster)
            original = pickle.dumps(SOLVER.solve(problem))
            for attempt in mutation_attempts(hit(cluster, problem)):
                with pytest.raises((TypeError, AttributeError)):
                    attempt()
            second = hit(cluster, problem, 2.0)
            assert second.assignments and second.policies
            assert pickle.dumps(second) == original

    def test_caller_mutation_after_put_does_not_corrupt_store(self):
        with ControllerCluster(ClusterConfig(shards=2)) as cluster:
            problem, solution = solved_on_cluster(cluster)
            original = pickle.dumps(SOLVER.solve(problem))
            for attempt in mutation_attempts(solution):
                with pytest.raises((TypeError, AttributeError)):
                    attempt()
            assert pickle.dumps(hit(cluster, problem)) == original
