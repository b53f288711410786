"""Unit tests for the invariant checker."""

from repro.chaos.invariants import (
    ALL_INVARIANTS,
    INV_AVAILABILITY,
    INV_CONSTRAINTS,
    INV_CONVERGENCE,
    INV_DETERMINISM,
    InvariantChecker,
    kmr_iteration_bound,
)
from repro.core import Bandwidth, GsoSolver, Resolution, paper_ladder
from repro.core.constraints import Problem, Subscription
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry


def mesh(n=3, up=5000, down=3000):
    ids = [f"c{k}" for k in range(n)]
    ladder = paper_ladder()
    return Problem(
        {cid: ladder for cid in ids},
        {cid: Bandwidth(up, down) for cid in ids},
        [
            Subscription(a, b, Resolution.P720)
            for a in ids
            for b in ids
            if a != b
        ],
    )


class TestIterationBound:
    def test_counts_distinct_resolutions_per_publisher(self):
        p = mesh(2)
        distinct = len({s.resolution for s in paper_ladder()})
        assert kmr_iteration_bound(p) == 2 * distinct + 1

    def test_real_solves_stay_inside_bound(self):
        p = mesh(3)
        solution = GsoSolver().solve(p)
        assert solution.iterations <= kmr_iteration_bound(p)


class TestCheckSolution:
    def test_valid_solution_passes(self):
        p = mesh()
        s = GsoSolver().solve(p)
        checker = InvariantChecker()
        assert checker.check_solution("m", p, s, at_s=1.0)
        assert checker.ok
        assert checker.checks[INV_CONSTRAINTS] == 1
        assert checker.checks[INV_CONVERGENCE] == 1

    def test_constraint_violation_is_caught(self):
        p = mesh()
        s = GsoSolver().solve(p)
        # Sabotage: a subscriber receives a stream nobody publishes at
        # that bitrate -> Solution.validate must fail.  (A solver's
        # assignment maps are read-only and may be shared: an edit
        # replaces the subscriber's map.)
        sub = next(iter(s.assignments))
        pub = next(iter(s.assignments[sub]))
        stream = s.assignments[sub][pub]
        s.assignments[sub] = {
            **s.assignments[sub],
            pub: type(stream)(
                bitrate_kbps=stream.bitrate_kbps + 1,
                resolution=stream.resolution,
                qoe=stream.qoe,
            ),
        }
        checker = InvariantChecker()
        assert not checker.check_solution("m", p, s, at_s=2.0)
        assert [v.invariant for v in checker.violations] == [INV_CONSTRAINTS]
        assert checker.violations[0].meeting_id == "m"
        assert checker.violations[0].at_s == 2.0

    def test_convergence_violation_is_caught(self):
        p = mesh()
        s = GsoSolver().solve(p)
        s.iterations = kmr_iteration_bound(p) + 1
        checker = InvariantChecker()
        assert not checker.check_solution("m", p, s, at_s=3.0)
        assert [v.invariant for v in checker.violations] == [INV_CONVERGENCE]


class TestCheckAvailability:
    def test_all_held_passes(self):
        checker = InvariantChecker()
        assert checker.check_availability(
            ["m0", "m1"], {"m0": True, "m1": True}, at_s=1.0
        )
        assert checker.checks[INV_AVAILABILITY] == 2

    def test_missing_configuration_fails(self):
        checker = InvariantChecker()
        assert not checker.check_availability(
            ["m0", "m1"], {"m0": True}, at_s=4.0
        )
        assert checker.violations[0].invariant == INV_AVAILABILITY
        assert checker.violations[0].meeting_id == "m1"


class TestCheckDeterminism:
    def test_identical_digests_pass(self):
        checker = InvariantChecker()
        assert checker.check_determinism("abc", "abc", seed=1)
        assert checker.checks[INV_DETERMINISM] == 1

    def test_divergent_digests_fail(self):
        checker = InvariantChecker()
        assert not checker.check_determinism("abc", "abd", seed=9)
        v = checker.violations[0]
        assert v.invariant == INV_DETERMINISM
        assert "seed 9" in v.detail


class TestExportAndMetrics:
    def test_to_dict_shape(self):
        checker = InvariantChecker()
        checker.check_availability(["m0"], {}, at_s=1.0)
        d = checker.to_dict()
        assert set(d["checks"]) == set(ALL_INVARIANTS)
        assert d["violations"][0]["invariant"] == INV_AVAILABILITY

    def test_counters_emitted_when_registry_enabled(self):
        p = mesh()
        s = GsoSolver().solve(p)
        with enabled_registry() as reg:
            checker = InvariantChecker()
            checker.check_solution("m", p, s, at_s=1.0)
            checker.check_availability(["m0"], {}, at_s=1.0)
            snap = reg.snapshot()["counters"]
        checks = {
            k: v for k, v in snap.items() if obs_names.CHAOS_CHECKS in k
        }
        violations = {
            k: v for k, v in snap.items() if obs_names.CHAOS_VIOLATIONS in k
        }
        assert sum(checks.values()) == 3  # constraints + convergence + avail
        assert sum(violations.values()) == 1
