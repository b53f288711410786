"""``pool.solve`` spans of the solve executor, plus a concurrency stress
test on the registry join path."""

import threading

from repro.cluster.pool import SolvePool
from repro.core.solver import SolverConfig
from repro.obs import names
from repro.obs.registry import enabled_registry
from repro.obs.spans import last_root_span, span
from tests.cluster.conftest import mesh_problem


def _problems(n):
    """Distinct small mesh problems (uplinks vary per index)."""
    return [
        mesh_problem(ups=(5000, 5000, 500 + 100 * k)) for k in range(n)
    ]


class TestPoolSpans:
    def _span_count(self, reg):
        snap = reg.snapshot()["histograms"]
        key = f'{names.SPAN_SECONDS}{{span="{names.SPAN_POOL_SOLVE}"}}'
        return snap.get(key, {}).get("count", 0)

    def test_serial_pool_records_pool_solve_spans(self):
        problems = _problems(3)
        with enabled_registry() as reg:
            with span("batch"):
                SolvePool(SolverConfig(granularity_kbps=50)).solve_many(problems)
            root = last_root_span()
        assert self._span_count(reg) == 3
        assert [c.name for c in root.children] == (
            [names.SPAN_POOL_SOLVE] * 3
        )


class TestRegistryStress:
    """Hammer the registry from concurrent solve_many joins: every span
    observation must land, none may be lost to races."""

    THREADS = 4
    BATCHES = 3
    PROBLEMS = 2

    def test_concurrent_solve_many_records_every_span(self):
        problems = _problems(self.PROBLEMS)
        errors = []

        def worker():
            try:
                pool = SolvePool(SolverConfig(granularity_kbps=50))
                for _ in range(self.BATCHES):
                    pool.solve_many(problems)
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
        key = f'{names.SPAN_SECONDS}{{span="{names.SPAN_POOL_SOLVE}"}}'
        expected = self.THREADS * self.BATCHES * self.PROBLEMS
        assert snap[key]["count"] == expected
