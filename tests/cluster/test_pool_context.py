"""A concurrency stress test on the registry's histogram-recording path."""

import threading

from repro.core.solver import GsoSolver, SolverConfig
from repro.obs import names
from repro.obs.registry import enabled_registry
from tests.cluster.conftest import mesh_problem


def _problems(n):
    """Distinct small mesh problems (uplinks vary per index)."""
    return [
        mesh_problem(ups=(5000, 5000, 500 + 100 * k)) for k in range(n)
    ]


class TestRegistryStress:
    """Hammer the registry from concurrent solves: every histogram
    observation must land, none may be lost to races."""

    THREADS = 4
    BATCHES = 3
    PROBLEMS = 2

    def test_concurrent_solves_record_every_span(self):
        problems = _problems(self.PROBLEMS)
        errors = []

        def worker():
            try:
                solver = GsoSolver(SolverConfig(granularity_kbps=50))
                for _ in range(self.BATCHES):
                    for problem in problems:
                        solver.solve(problem)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with enabled_registry() as reg:
            threads = [
                threading.Thread(target=worker)
                for _ in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snap = reg.snapshot()["histograms"]
        assert not errors
        key = names.KMR_SOLVE_SECONDS
        expected = self.THREADS * self.BATCHES * self.PROBLEMS
        assert snap[key]["count"] == expected
