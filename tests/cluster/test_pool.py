"""Solve executor: solves match the direct solver."""

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


class TestSerial:
    def test_solve_matches_direct_solver(self):
        pool = SolvePool(CONFIG)
        solver = GsoSolver(CONFIG)
        for problem in PROBLEMS:
            want = solver.solve(problem)
            assert pickle.dumps(pool.solve(problem)) == pickle.dumps(want)
