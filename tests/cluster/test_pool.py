"""Solve executor: one-problem and batch solves match the direct solver."""

import pickle

from repro.cluster import SolvePool
from repro.core.solver import GsoSolver, SolverConfig

from .conftest import mesh_problem

CONFIG = SolverConfig(granularity_kbps=25)

PROBLEMS = [
    mesh_problem(ups=(5000, 5000, 500)),
    mesh_problem(ups=(1200, 900, 700)),
    mesh_problem(ups=(5000, 5000, 500), downs=(900, 5000, 5000)),
]


def reference_solutions():
    solver = GsoSolver(CONFIG)
    return [solver.solve(p) for p in PROBLEMS]


class TestSerial:
    def test_solve_matches_direct_solver(self):
        pool = SolvePool(CONFIG)
        for problem, want in zip(PROBLEMS, reference_solutions()):
            assert pickle.dumps(pool.solve(problem)) == pickle.dumps(want)

    def test_solve_many_preserves_order(self):
        got = SolvePool(CONFIG).solve_many(PROBLEMS)
        for have, want in zip(got, reference_solutions()):
            assert pickle.dumps(have) == pickle.dumps(want)

    def test_empty_batch(self):
        assert SolvePool(CONFIG).solve_many([]) == []
