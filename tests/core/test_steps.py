"""Unit tests for the three KMR steps in isolation."""

import pytest

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.knapsack import knapsack_step, solve_subscriber
from repro.core.ladder import paper_ladder
from repro.core.merge import invert_requests, merge_publisher, merge_step
from repro.core.reduction import (
    check_uplink,
    fix_owner,
    highest_policy_resolution,
    is_fixable,
    reduction_step,
)
from repro.core.solution import PolicyEntry
from repro.core.types import Resolution, StreamSpec


def spec(rate, res, qoe=None):
    return StreamSpec(rate, res, float(qoe if qoe is not None else rate))


def star_problem(downlink_kbps, n_pubs=2, uplink_kbps=5000):
    """One subscriber ("sub") following n publishers with the paper ladder."""
    ladder = paper_ladder()
    pubs = [f"P{k}" for k in range(n_pubs)]
    return Problem(
        feasible_streams={p: ladder for p in pubs},
        bandwidth={
            "sub": Bandwidth(uplink_kbps, downlink_kbps),
            **{p: Bandwidth(uplink_kbps, 5000) for p in pubs},
        },
        subscriptions=[Subscription("sub", p) for p in pubs],
    )


class TestKnapsackStep:
    def test_no_edges_yields_empty(self):
        p = star_problem(1000, n_pubs=1)
        assert solve_subscriber(p, "P0") == {}

    def test_picks_best_within_downlink(self):
        p = star_problem(1600, n_pubs=1)
        requests = solve_subscriber(p, "sub")
        assert requests["P0"].bitrate_kbps == 1500

    def test_tight_downlink_downgrades(self):
        p = star_problem(450, n_pubs=1)
        requests = solve_subscriber(p, "sub")
        assert requests["P0"].bitrate_kbps == 400

    def test_zero_downlink_requests_nothing(self):
        p = star_problem(0, n_pubs=1)
        assert solve_subscriber(p, "sub") == {}

    def test_downlink_smaller_than_smallest_stream(self):
        p = star_problem(99, n_pubs=1)
        assert solve_subscriber(p, "sub") == {}

    def test_multiple_publishers_share_downlink(self):
        p = star_problem(1000, n_pubs=2)
        requests = solve_subscriber(p, "sub")
        total = sum(s.bitrate_kbps for s in requests.values())
        assert total <= 1000
        assert len(requests) == 2  # both kept at reduced bitrates

    def test_step_runs_for_all_subscribers(self):
        p = star_problem(1000, n_pubs=2)
        requests = knapsack_step(p)
        assert set(requests) == {"sub"}

    def test_exhaustive_agrees_with_dp(self):
        p = star_problem(1234, n_pubs=2)
        dp = solve_subscriber(p, "sub")
        ex = solve_subscriber(p, "sub", exhaustive=True)
        assert sum(s.qoe for s in dp.values()) == pytest.approx(
            sum(s.qoe for s in ex.values())
        )

    def test_respects_restricted_feasible_sets(self):
        p = star_problem(2000, n_pubs=1)
        restricted = {
            "P0": [s for s in paper_ladder() if s.resolution < Resolution.P720]
        }
        requests = solve_subscriber(p, "sub", feasible=restricted)
        assert requests["P0"].resolution < Resolution.P720


class TestEdgeOrdering:
    """The cached Step-1 class order and its Table-1 tie-break."""

    def tie_problem(self):
        # At 1400 kbps downlink, the assignments A@1000+B@400 and
        # A@600+B@800 tie at total QoE 10 AND total weight 1400 — the
        # DP's smallest-column rule cannot separate them, so the class
        # order must: the higher-capped edge A (the 720p speaker tile)
        # receives the larger stream, the ordering Table 1 exhibits.
        ladder_a = [
            spec(1000, Resolution.P720, qoe=8.0),
            spec(600, Resolution.P360, qoe=4.0),
        ]
        ladder_b = [
            spec(800, Resolution.P360, qoe=6.0),
            spec(400, Resolution.P180, qoe=2.0),
        ]
        return Problem(
            feasible_streams={"A": ladder_a, "B": ladder_b},
            bandwidth={
                "sub": Bandwidth(5000, 1400),
                "A": Bandwidth(5000, 5000),
                "B": Bandwidth(5000, 5000),
            },
            subscriptions=[
                Subscription("sub", "A", Resolution.P720),
                Subscription("sub", "B", Resolution.P360),
            ],
        )

    def test_ordered_followed_by_sorts_by_cap_then_publisher(self):
        p = self.tie_problem()
        order = [e.publisher for e in p.ordered_followed_by("sub")]
        assert order == ["B", "A"]  # ascending cap: P360 first

    def test_ordered_followed_by_is_cached(self):
        p = self.tie_problem()
        assert p.ordered_followed_by("sub") is p.ordered_followed_by("sub")

    def test_ordered_followed_by_matches_legacy_sort(self):
        p = star_problem(1000, n_pubs=5)
        legacy = sorted(
            p.followed_by("sub"),
            key=lambda e: (e.max_resolution, e.publisher),
        )
        assert list(p.ordered_followed_by("sub")) == legacy

    def test_table1_tiebreak_prefers_high_cap_edge(self):
        p = self.tie_problem()
        requests = solve_subscriber(p, "sub")
        assert requests["A"].bitrate_kbps == 1000
        assert requests["A"].resolution == Resolution.P720
        assert requests["B"].bitrate_kbps == 400

    def test_tiebreak_preserved_on_memoized_path(self):
        from repro.core.engine import MckpInstanceCache

        p = self.tie_problem()
        direct = {sub: solve_subscriber(p, sub) for sub in p.subscribers}
        memoized = knapsack_step(p, cache=MckpInstanceCache(capacity=16))
        assert direct == memoized
        assert memoized["sub"]["A"].resolution == Resolution.P720


class TestMergeStep:
    def test_same_resolution_requests_merge_to_min(self):
        asked = [
            (("B",), spec(1400, Resolution.P720)),
            (("C",), spec(1100, Resolution.P720)),
        ]
        merged = merge_publisher(asked)
        assert merged[Resolution.P720].bitrate_kbps == 1100
        assert merged[Resolution.P720].audience == frozenset({"B", "C"})

    def test_different_resolutions_kept_separate(self):
        asked = [
            (("A",), spec(250, Resolution.P180)),
            (("C",), spec(1400, Resolution.P720)),
        ]
        merged = merge_publisher(asked)
        assert set(merged) == {Resolution.P180, Resolution.P720}

    def test_invert_folds_aliases_to_canonical(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(5000, 5000), "B": Bandwidth(5000, 5000)},
            [Subscription("B", "A"), Subscription("B", "A#v", Resolution.P180)],
            aliases={"A#v": "A"},
        )
        requests = {
            "B": {
                "A": spec(1500, Resolution.P720),
                "A#v": spec(300, Resolution.P180),
            }
        }
        served = invert_requests(p, requests)
        assert set(served) == {"A"}
        assert len(served["A"]) == 2

    def test_unrequested_publisher_absent(self):
        p = star_problem(1600, n_pubs=2)
        requests = {"sub": {"P0": spec(1500, Resolution.P720)}}
        policies = merge_step(p, requests)
        assert "P1" not in policies


class TestReductionStep:
    def entries(self, *specs):
        return [
            ("pub", s.resolution, PolicyEntry(stream=s, audience=frozenset({"x"})))
            for s in specs
        ]

    def test_check_uplink(self):
        e = self.entries(spec(1500, Resolution.P720), spec(400, Resolution.P360))
        assert check_uplink(e, 1900)
        assert not check_uplink(e, 1899)

    def test_is_fixable_true_when_minimums_fit(self):
        e = self.entries(spec(1500, Resolution.P720), spec(800, Resolution.P360))
        feasible = {"pub": paper_ladder()}
        # minimum 720 rung = 1000, minimum 360 rung = 400 -> 1400
        assert is_fixable(e, feasible, 1400)
        assert not is_fixable(e, feasible, 1399)

    def test_is_fixable_false_when_resolution_missing(self):
        e = self.entries(spec(1500, Resolution.P720))
        assert not is_fixable(e, {"pub": []}, 10_000)

    def test_fix_lowers_bitrates_keeping_audience(self):
        e = self.entries(spec(1500, Resolution.P720), spec(800, Resolution.P360))
        fixed = fix_owner(e, {"pub": paper_ladder()}, 1500)
        assert fixed is not None
        total = sum(entry.bitrate_kbps for _, _, entry in fixed)
        assert total <= 1500
        resolutions = {res for _, res, _ in fixed}
        assert resolutions == {Resolution.P720, Resolution.P360}
        for _, _, entry in fixed:
            assert entry.audience == frozenset({"x"})

    def test_fix_returns_none_when_unfixable(self):
        e = self.entries(spec(1500, Resolution.P720), spec(800, Resolution.P360))
        assert fix_owner(e, {"pub": paper_ladder()}, 1000) is None

    def test_highest_policy_resolution(self):
        e = self.entries(spec(400, Resolution.P360), spec(1500, Resolution.P720))
        assert highest_policy_resolution(e) == ("pub", Resolution.P720)

    def test_reduction_outcome_solved_when_all_fit(self):
        p = star_problem(5000, n_pubs=1)
        policies = {
            "P0": {
                Resolution.P720: PolicyEntry(
                    spec(1500, Resolution.P720), frozenset({"sub"})
                )
            }
        }
        outcome = reduction_step(p, policies, {"P0": paper_ladder()})
        assert outcome.solved
        assert outcome.policies["P0"][Resolution.P720].bitrate_kbps == 1500

    def test_reduction_outcome_reduce_when_unfixable(self):
        p = star_problem(5000, n_pubs=1, uplink_kbps=900)
        policies = {
            "P0": {
                Resolution.P720: PolicyEntry(
                    spec(1500, Resolution.P720), frozenset({"sub"})
                ),
            }
        }
        outcome = reduction_step(p, policies, {"P0": paper_ladder()})
        assert not outcome.solved
        assert outcome.reduce == ("P0", Resolution.P720)

    def test_owner_aggregation_across_entities(self):
        """Camera + screen of one client share its uplink."""
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder, "A:screen": ladder},
            {"A": Bandwidth(1800, 5000), "B": Bandwidth(5000, 5000)},
            [Subscription("B", "A"), Subscription("B", "A:screen")],
            owners={"A:screen": "A"},
        )
        policies = {
            "A": {
                Resolution.P720: PolicyEntry(
                    spec(1500, Resolution.P720), frozenset({"B"})
                )
            },
            "A:screen": {
                Resolution.P720: PolicyEntry(
                    spec(1500, Resolution.P720), frozenset({"B"})
                )
            },
        }
        outcome = reduction_step(
            p, policies, {"A": ladder, "A:screen": ladder}
        )
        # 3000 > 1800, but both can drop to 1000-rung... 2000 > 1800 still,
        # so unfixable: the highest resolution must be reduced.
        assert not outcome.solved
        assert outcome.reduce[1] == Resolution.P720
