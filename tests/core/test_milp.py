"""Tests for the exact MILP oracle and the KMR optimality gap."""

import random

import pytest

from repro.core import Bandwidth, GsoSolver, Resolution, SolverConfig, StreamSpec
from repro.core.bruteforce import solve_joint_bruteforce
from repro.core.constraints import Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.milp import solve_joint_milp


def random_mesh(rng, n_clients, ladder):
    clients = [f"C{k}" for k in range(n_clients)]
    subs = [
        Subscription(a, b, rng.choice([Resolution.P720, Resolution.P360]))
        for a in clients
        for b in clients
        if a != b and rng.random() < 0.85
    ]
    return Problem(
        {c: ladder for c in clients},
        {
            c: Bandwidth(
                rng.choice([600, 1500, 3000, 5000]),
                rng.choice([500, 1000, 2000, 4000]),
            )
            for c in clients
        },
        subs,
    )


class TestMilpCorrectness:
    def test_matches_bruteforce_on_toy_instances(self):
        short = [
            StreamSpec(1500, Resolution.P720, 1200.0),
            StreamSpec(600, Resolution.P360, 530.0),
            StreamSpec(300, Resolution.P180, 300.0),
        ]
        rng = random.Random(8)
        for trial in range(10):
            problem = random_mesh(rng, 3, short)
            milp_sol = solve_joint_milp(problem)
            milp_sol.validate(problem)
            brute = solve_joint_bruteforce(problem)
            assert milp_sol.total_qoe() == pytest.approx(
                brute.total_qoe(), abs=1e-6
            ), f"trial {trial}"

    def test_empty_problem(self):
        s = solve_joint_milp(Problem({}, {}, []))
        assert s.policies == {}

    def test_no_wasted_encodings(self):
        """The activation penalty switches off unsubscribed streams."""
        ladder = paper_ladder()
        problem = Problem(
            {"P": ladder},
            {"P": Bandwidth(5000, 100), "S": Bandwidth(100, 700)},
            [Subscription("S", "P", Resolution.P360)],
        )
        s = solve_joint_milp(problem)
        s.validate(problem)
        assert len(s.policies.get("P", {})) == 1

    def test_handles_aliases_and_owners(self):
        from repro.core import ProblemBuilder

        builder = ProblemBuilder()
        ladder = paper_ladder()
        builder.add_client("host", Bandwidth(2500, 100), ladder)
        builder.add_client("viewer", Bandwidth(100, 4000))
        screen = builder.add_screen_share(
            "host",
            [
                StreamSpec(1200, Resolution.P720, 1100.0),
                StreamSpec(350, Resolution.P360, 400.0),
            ],
        )
        builder.subscribe_dual("viewer", "host")
        builder.subscribe("viewer", screen)
        problem = builder.build()
        s = solve_joint_milp(problem)
        s.validate(problem)
        # Camera + screen respect the shared 2500 kbps uplink.
        total = sum(
            e.bitrate_kbps
            for pub in s.policies
            for e in s.policies[pub].values()
        )
        assert total <= 2500


class TestKmrOptimalityGap:
    def test_kmr_stays_near_the_global_optimum(self):
        """On random 5-client meshes with the 9-level ladder, KMR's final
        QoE stays within ~20% of the proven joint optimum (measured: mean
        ~0.84, min ~0.81 — the gap is Step-2's merge-to-minimum, which a
        globally coordinated optimum avoids by aligning subscribers on one
        bitrate up front).  Note the paper's "QoE optimality ~ 1" metric is
        the *Step-1* objective, which the DP does solve exactly."""
        ladder = paper_ladder()
        rng = random.Random(21)
        solver = GsoSolver(SolverConfig(granularity_kbps=10))
        ratios = []
        for _ in range(8):
            problem = random_mesh(rng, 5, ladder)
            optimal = solve_joint_milp(problem).total_qoe()
            if optimal <= 0:
                continue
            achieved = solver.solve(problem).total_qoe()
            assert achieved <= optimal + 1e-6
            ratios.append(achieved / optimal)
        assert ratios, "degenerate sample"
        assert min(ratios) > 0.70
        assert sum(ratios) / len(ratios) > 0.80
