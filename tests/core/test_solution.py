"""Tests for the Solution model and its constraint validation."""

import pickle
from types import MappingProxyType

import pytest

from repro.control.failover import single_stream_fallback
from repro.core import Bandwidth, PolicyEntry, Resolution, Solution, StreamSpec
from repro.core.constraints import Problem, Subscription
from repro.core.solution import solution_digest
from repro.core.solver import GsoSolver, KmrRun, SolverConfig

from .reference import reference_solution_digest
from .test_incremental import GENERATORS
from .test_memory import tight_webinar, webinar_picture


def spec(rate, res, qoe=None):
    return StreamSpec(rate, res, float(qoe if qoe is not None else rate))


def toy_problem(downlink=5000, uplink=5000):
    ladder = [spec(1000, Resolution.P720), spec(300, Resolution.P180)]
    return Problem(
        {"P": ladder},
        {"P": Bandwidth(uplink, 100), "S": Bandwidth(100, downlink)},
        [Subscription("S", "P", Resolution.P720)],
    )


def good_solution():
    stream = spec(1000, Resolution.P720)
    return Solution(
        policies={
            "P": {
                Resolution.P720: PolicyEntry(stream, frozenset({"S"})),
            }
        },
        assignments={"S": {"P": stream}},
    )


class TestAggregates:
    def test_total_qoe_sums_assignments(self):
        s = good_solution()
        assert s.total_qoe() == pytest.approx(1000.0)

    def test_subscriber_qoe(self):
        s = good_solution()
        assert s.subscriber_qoe("S") == pytest.approx(1000.0)
        assert s.subscriber_qoe("missing") == 0.0

    def test_usage_accounting(self):
        s = good_solution()
        assert s.uplink_usage_kbps("P") == 1000
        assert s.downlink_usage_kbps("S") == 1000
        assert s.uplink_usage_kbps("missing") == 0

    def test_published_streams_high_resolution_first(self):
        hi, lo = spec(1000, Resolution.P720), spec(300, Resolution.P180)
        s = Solution(
            policies={
                "P": {
                    Resolution.P180: PolicyEntry(lo, frozenset({"S"})),
                    Resolution.P720: PolicyEntry(hi, frozenset({"S"})),
                }
            },
            assignments={"S": {"P": hi}},
        )
        assert [x.resolution for x in s.published_streams("P")] == [
            Resolution.P720,
            Resolution.P180,
        ]

    def test_summary_mentions_publishers(self):
        text = good_solution().summary()
        assert "P publishes" in text
        assert "total QoE" in text


class TestValidation:
    def test_good_solution_validates(self):
        good_solution().validate(toy_problem())

    def test_detects_downlink_violation(self):
        with pytest.raises(AssertionError, match="downlink violated"):
            good_solution().validate(toy_problem(downlink=900))

    def test_detects_uplink_violation(self):
        with pytest.raises(AssertionError, match="uplink violated"):
            good_solution().validate(toy_problem(uplink=900))

    def test_detects_non_feasible_stream(self):
        s = good_solution()
        rogue = spec(999, Resolution.P720)
        s.policies["P"][Resolution.P720] = PolicyEntry(rogue, frozenset({"S"}))
        s.assignments["S"]["P"] = rogue
        with pytest.raises(AssertionError, match="non-feasible"):
            s.validate(toy_problem())

    def test_detects_resolution_cap_violation(self):
        ladder = [spec(1000, Resolution.P720)]
        p = Problem(
            {"P": ladder},
            {"P": Bandwidth(5000, 100), "S": Bandwidth(100, 5000)},
            [Subscription("S", "P", Resolution.P180)],
        )
        with pytest.raises(AssertionError, match="exceeds"):
            good_solution().validate(p)

    def test_detects_unfollowed_assignment(self):
        ladder = [spec(1000, Resolution.P720)]
        p = Problem(
            {"P": ladder},
            {
                "P": Bandwidth(5000, 100),
                "S": Bandwidth(100, 5000),
                "T": Bandwidth(100, 5000),
            },
            [Subscription("T", "P", Resolution.P720)],
        )
        with pytest.raises(AssertionError):
            good_solution().validate(p)

    def test_detects_empty_audience(self):
        s = good_solution()
        s.policies["P"][Resolution.P720] = PolicyEntry(
            spec(1000, Resolution.P720), frozenset()
        )
        s.assignments = {}
        with pytest.raises(AssertionError, match="no audience"):
            s.validate(toy_problem())

    def test_detects_policy_assignment_mismatch(self):
        s = good_solution()
        s.assignments["S"]["P"] = spec(300, Resolution.P180)
        with pytest.raises(AssertionError):
            s.validate(toy_problem())

    def test_detects_audience_without_assignment(self):
        s = good_solution()
        s.assignments = {"S": {}}
        with pytest.raises(AssertionError, match="lacks"):
            s.validate(toy_problem())

    def test_detects_policy_keyed_by_wrong_resolution(self):
        s = good_solution()
        entry = s.policies["P"].pop(Resolution.P720)
        s.policies["P"][Resolution.P180] = entry
        with pytest.raises(AssertionError, match="keyed"):
            s.validate(toy_problem())


class TestPolicyEntryPickleCanonical:
    """Equal policy entries must pickle byte-identically — audiences are
    frozensets, whose native serialization order depends on insertion
    history."""

    def test_insertion_order_does_not_leak_into_bytes(self):
        import pickle

        stream = spec(1000, Resolution.P720)
        ids = [f"c{k}" for k in range(40)]
        a = PolicyEntry(stream, frozenset(ids))
        b = PolicyEntry(stream, frozenset(reversed(ids)))
        assert a == b
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_round_trip_is_byte_stable(self):
        import pickle

        stream = spec(1000, Resolution.P720)
        entry = PolicyEntry(stream, frozenset(f"c{k}" for k in range(40)))
        blob = pickle.dumps(entry)
        again = pickle.loads(blob)
        assert again == entry
        assert pickle.dumps(again) == blob


class TestFreeze:
    """Freezing changes who may write, and nothing anyone can read."""

    def test_equal_and_byte_identical_to_the_mutable_twin(self):
        mutable, frozen = good_solution(), good_solution().freeze()
        assert frozen.is_frozen and not mutable.is_frozen
        assert frozen == mutable and mutable == frozen
        assert pickle.dumps(frozen) == pickle.dumps(mutable)
        frozen.validate(toy_problem())

    def test_digest_memo_is_invisible(self):
        mutable, frozen = good_solution(), good_solution().freeze()
        blob, shown = pickle.dumps(frozen), repr(frozen)
        assert solution_digest(frozen) == solution_digest(mutable)
        assert pickle.dumps(frozen) == blob == pickle.dumps(mutable)
        assert repr(frozen) == shown
        assert frozen == mutable

    def test_unpickled_copy_is_mutable_again(self):
        frozen = good_solution().freeze()
        solution_digest(frozen)
        copy = pickle.loads(pickle.dumps(frozen))
        assert copy == frozen and not copy.is_frozen
        copy.assignments["S"].clear()
        assert copy != frozen
        assert solution_digest(copy) != solution_digest(frozen)

    def test_frozen_solution_refuses_every_write(self):
        s = good_solution().freeze()
        assert s.freeze() is s
        with pytest.raises(TypeError):
            s.assignments["S"]["P"] = spec(300, Resolution.P180)
        with pytest.raises(TypeError):
            del s.policies["P"]
        with pytest.raises(AttributeError):
            s.reduced.append(("P", Resolution.P720))
        with pytest.raises(AttributeError):
            s.iterations = 7
        with pytest.raises(AttributeError):
            del s.assignments

    def test_mutable_digest_follows_an_in_place_edit(self):
        s = good_solution()
        before = solution_digest(s)
        assert solution_digest(s) == before
        s.assignments["S"].clear()
        assert solution_digest(s) != before


def assert_digest_is_the_reference(solution):
    """``solution_digest`` of ``solution`` mutable, frozen and unpickled
    prints the line-per-edge reference's bytes."""
    want = reference_solution_digest(solution)
    assert solution_digest(solution) == want
    # An unpickled copy holds one plain dict per subscriber, and equal
    # streams that are other objects.
    copy = pickle.loads(pickle.dumps(solution))
    assert solution_digest(copy) == want
    assert solution_digest(copy.freeze()) == want
    assert solution_digest(solution.freeze()) == want


class TestDigestAgainstReference:
    """The digest that builds each assignment's lines once, and each
    (publisher, stream) tail once, prints what the line-per-edge one
    printed."""

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_every_generator_frozen_and_mutable(self, name):
        solver = GsoSolver(SolverConfig(granularity_kbps=25))
        assert_digest_is_the_reference(solver.solve(GENERATORS[name]()))

    def test_equal_streams_that_are_distinct_objects(self):
        s = good_solution()
        s.assignments["T"] = {"P": spec(1000, Resolution.P720)}
        s.assignments["U"] = {"P": spec(300, Resolution.P180)}
        assert solution_digest(s) == reference_solution_digest(s)

    def test_shared_unshared_and_empty_maps(self):
        hi, lo = spec(1000, Resolution.P720), spec(300, Resolution.P180)
        shared = {"P": hi, "Q": lo}
        s = Solution(
            policies={
                "P": {Resolution.P720: PolicyEntry(hi, frozenset("STU"))},
                "Q": {Resolution.P180: PolicyEntry(lo, frozenset("STUV"))},
            },
            # S and T share one map object, U holds an equal copy, V a
            # map of its own and W an empty one.
            assignments={
                "T": shared,
                "S": shared,
                "U": dict(shared),
                "V": {"Q": lo},
                "W": {},
            },
        )
        assert_digest_is_the_reference(s)

    def test_a_fallback_that_leaves_a_subscriber_nothing(self):
        # S's downlink fits no stream: the fallback maps it to {}.
        ladder = [spec(1000, Resolution.P720), spec(300, Resolution.P180)]
        problem = Problem(
            {"P": ladder},
            {
                "P": Bandwidth(5000, 100),
                "S": Bandwidth(100, 200),
                "T": Bandwidth(100, 5000),
            },
            [
                Subscription("S", "P", Resolution.P720),
                Subscription("T", "P", Resolution.P720),
            ],
        )
        fallback = single_stream_fallback(problem)
        assert fallback.assignments["S"] == {}
        assert fallback.assignments["T"] == {"P": ladder[1]}
        assert_digest_is_the_reference(fallback)

    def test_every_solve_of_a_replayed_webinar(self):
        # One webinar re-decided on a sequence of link reports, as the
        # controller does: the later solves replay the earlier ones.
        solver = GsoSolver(SolverConfig(granularity_kbps=25))
        run = KmrRun()
        for report in range(8):
            solution = solver.solve(tight_webinar(report, 3), warm=run)
            assert len(solution.assignments) == 118
            assert_digest_is_the_reference(solution)
        assert run.steps


class TestSharedAssignments:
    """Subscribers with the same final assignment hold one read-only map;
    the solution stays its caller's to edit, one subscriber at a time."""

    @staticmethod
    def solve():
        return GsoSolver(SolverConfig(granularity_kbps=25)).solve(
            webinar_picture({})
        )

    def test_equal_assignments_share_one_read_only_map(self):
        s = self.solve()
        maps = {}
        for sub, assigned in s.assignments.items():
            assert type(assigned) is MappingProxyType
            maps.setdefault(id(assigned), []).append(sub)
        # 118 subscribers, a handful of distinct assignments.
        assert len(maps) < 30
        distinct = {
            tuple(s.assignments[subs[0]].items()) for subs in maps.values()
        }
        assert len(distinct) == len(maps)
        frozen = s.freeze()
        assert len({id(p) for p in frozen.assignments.values()}) == len(maps)

    def test_editing_one_subscriber_cannot_change_another(self):
        s = self.solve()
        first, second = next(
            (a, b)
            for a in s.assignments
            for b in s.assignments
            if a != b and s.assignments[a] is s.assignments[b]
        )
        before = dict(s.assignments[second])
        pub, stream = next(iter(s.assignments[first].items()))
        with pytest.raises(TypeError):
            s.assignments[first][pub] = spec(1, stream.resolution)
        s.assignments[first] = {**s.assignments[first], pub: spec(1, stream.resolution)}
        assert s.assignments[second] == before
        assert s.assignments[first][pub].bitrate_kbps == 1

    def test_sharing_is_invisible_to_equality_and_pickle(self):
        s = self.solve()
        unshared = Solution(
            policies={pub: dict(e) for pub, e in s.policies.items()},
            assignments={sub: dict(p) for sub, p in s.assignments.items()},
            iterations=s.iterations,
            reduced=list(s.reduced),
        )
        assert s == unshared and unshared == s
        assert pickle.dumps(s) == pickle.dumps(unshared)
        assert pickle.dumps(s.freeze()) == pickle.dumps(unshared)
