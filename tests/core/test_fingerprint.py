"""Canonical ``Problem.fingerprint()`` — the cluster cache key.

The solve service (``repro.cluster``) reuses cached solutions whenever two
problems share a fingerprint, so the fingerprint must be exactly as coarse
as the solver's own blindness and no coarser:

* construction-order permutations must collide (same meeting, same key);
* downlink budgets may be bucketed to the knapsack granularity — the DP
  only sees ``capacity // granularity`` slots;
* uplink budgets must stay exact — Step 3 compares raw kbps (Eq. 14/17),
  so near-miss uplinks must NOT collide after bucketing.
"""

import hashlib
import random
from types import SimpleNamespace

import pytest

from repro.core import constraints
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import make_ladder, paper_ladder
from repro.core.solver import GsoSolver, SolverConfig
from repro.core.types import Resolution

from .test_incremental import GENERATORS


def mesh_problem(
    ladder=None,
    ups=(5000, 5000, 500),
    downs=(3000, 3000, 3000),
    protection=0,
    subscription_order=None,
):
    ladder = ladder if ladder is not None else paper_ladder()
    ids = [f"c{k}" for k in range(len(ups))]
    subs = [
        Subscription(a, b, Resolution.P720)
        for a in ids
        for b in ids
        if a != b
    ]
    if subscription_order is not None:
        subs = [subs[i] for i in subscription_order]
    return Problem(
        feasible_streams={cid: ladder for cid in ids},
        bandwidth={
            cid: Bandwidth(up, down, audio_protection_kbps=protection)
            for cid, up, down in zip(ids, ups, downs)
        },
        subscriptions=subs,
    )


class TestPermutationInvariance:
    def test_subscription_order_irrelevant(self):
        base = mesh_problem()
        n = len(base.subscriptions)
        rng = random.Random(11)
        for _ in range(5):
            order = list(range(n))
            rng.shuffle(order)
            shuffled = mesh_problem(subscription_order=order)
            assert shuffled.fingerprint() == base.fingerprint()

    def test_mapping_insertion_order_irrelevant(self):
        ladder = paper_ladder()
        fwd = Problem(
            feasible_streams={"a": ladder, "b": ladder},
            bandwidth={"a": Bandwidth(5000, 3000), "b": Bandwidth(900, 700)},
            subscriptions=[Subscription("a", "b"), Subscription("b", "a")],
        )
        rev = Problem(
            feasible_streams={"b": ladder, "a": ladder},
            bandwidth={"b": Bandwidth(900, 700), "a": Bandwidth(5000, 3000)},
            subscriptions=[Subscription("b", "a"), Subscription("a", "b")],
        )
        assert fwd.fingerprint(25) == rev.fingerprint(25)

    def test_ladder_stream_order_irrelevant(self):
        ladder = paper_ladder()
        reversed_ladder = list(reversed(ladder))
        a = mesh_problem(ladder=ladder)
        b = mesh_problem(ladder=reversed_ladder)
        assert a.fingerprint() == b.fingerprint()

    def test_alias_and_owner_maps_keyed_canonically(self):
        ladder = paper_ladder()

        def build(alias_first):
            aliases = {"a2": "a", "a3": "a"}
            items = list(aliases.items())
            if not alias_first:
                items = list(reversed(items))
            return Problem(
                feasible_streams={"a": ladder, "b": ladder},
                bandwidth={"a": Bandwidth(5000, 3000), "b": Bandwidth(5000, 3000)},
                subscriptions=[
                    Subscription("b", "a"),
                    Subscription("b", "a2", Resolution.P180),
                    Subscription("b", "a3", Resolution.P360),
                    Subscription("a", "b"),
                ],
                aliases=dict(items),
            )

        assert build(True).fingerprint() == build(False).fingerprint()


class TestDiscrimination:
    def test_different_ladders_differ(self):
        a = mesh_problem(ladder=paper_ladder())
        b = mesh_problem(ladder=make_ladder(levels_per_resolution=5))
        assert a.fingerprint() != b.fingerprint()

    def test_subscription_cap_differs(self):
        base = mesh_problem()
        ladder = paper_ladder()
        ids = ["c0", "c1", "c2"]
        subs = [
            Subscription(a, b, Resolution.P360 if (a, b) == ("c0", "c1") else Resolution.P720)
            for a in ids
            for b in ids
            if a != b
        ]
        capped = Problem(
            feasible_streams={cid: ladder for cid in ids},
            bandwidth={cid: base.bandwidth[cid] for cid in ids},
            subscriptions=subs,
        )
        assert capped.fingerprint() != base.fingerprint()

    def test_granularity_is_part_of_the_key(self):
        p = mesh_problem()
        assert p.fingerprint(1) != p.fingerprint(25)

    def test_audio_protection_folds_into_effective_budgets(self):
        # 1045 uplink with 45 kbps protection == 1000 uplink with none: the
        # solver only ever reads the effective budgets.
        raw = mesh_problem(ups=(1045, 5045, 545), downs=(3045, 3045, 3045), protection=45)
        eff = mesh_problem(ups=(1000, 5000, 500), downs=(3000, 3000, 3000))
        assert raw.fingerprint(25) == eff.fingerprint(25)


class TestBudgetBucketing:
    """Near-miss budgets: bucketing must match the solver's blindness."""

    GRANULARITY = 10

    def test_downlink_bucket_edge_does_not_collide(self):
        # 2999 vs 3000 straddle a bucket boundary at g=10 -> distinct keys.
        a = mesh_problem(downs=(2999, 3000, 3000))
        b = mesh_problem(downs=(3000, 3000, 3000))
        assert a.fingerprint(self.GRANULARITY) != b.fingerprint(self.GRANULARITY)

    def test_downlink_same_bucket_collides_and_is_lossless(self):
        # 3000 vs 3009 share the g=10 bucket; the DP sees 300 slots either
        # way, so colliding is correct -- prove it by comparing solutions.
        a = mesh_problem(downs=(3000, 3000, 3000))
        b = mesh_problem(downs=(3009, 3000, 3000))
        assert a.fingerprint(self.GRANULARITY) == b.fingerprint(self.GRANULARITY)
        solver = GsoSolver(SolverConfig(granularity_kbps=self.GRANULARITY))
        assert solver.solve(a) == solver.solve(b)

    def test_uplink_near_miss_never_collides(self):
        # Step 3 compares exact kbps sums against the uplink, so 500 vs 509
        # (same coarse bucket) must stay distinct fingerprints.
        a = mesh_problem(ups=(5000, 5000, 500))
        b = mesh_problem(ups=(5000, 5000, 509))
        assert a.fingerprint(self.GRANULARITY) != b.fingerprint(self.GRANULARITY)

    def test_uplink_straddling_a_merge_total_changes_the_solution(self):
        # The reason uplinks stay exact: budgets 1000 vs 1009 straddle
        # nothing at paper-ladder rungs, but 1490 vs 1500 straddle the 720p
        # 1500 kbps rung -- identical bucketed keys would alias two
        # different reductions.
        lo = mesh_problem(ups=(1490, 5000, 5000))
        hi = mesh_problem(ups=(1500, 5000, 5000))
        solver = GsoSolver(SolverConfig(granularity_kbps=self.GRANULARITY))
        assert solver.solve(lo) != solver.solve(hi)
        assert lo.fingerprint(self.GRANULARITY) != hi.fingerprint(self.GRANULARITY)

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            mesh_problem().fingerprint(0)


class TestSchemaShape:
    def test_prefix_and_stability(self):
        p = mesh_problem()
        fp = p.fingerprint(25)
        assert fp.startswith(Problem.FINGERPRINT_SCHEMA + ":")
        assert fp == p.fingerprint(25)  # pure function of the problem


class TestMemo:
    """The fingerprint is kept on the instance, one hash per granularity,
    and says what a freshly built equal ``Problem`` says."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        """The payloads ``core.constraints`` hands to ``hashlib.sha256``."""
        seen = []

        def sha256(data):
            seen.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(constraints, "hashlib", SimpleNamespace(sha256=sha256))
        return seen

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_one_hash_per_instance_and_granularity(self, name, hashes):
        p = GENERATORS[name]()
        first = {g: p.fingerprint(g) for g in (1, 25)}
        assert len(hashes) == 2
        assert {g: p.fingerprint(g) for g in (1, 25)} == first
        assert len(hashes) == 2  # the repeat calls hashed nothing
        assert first[1] != first[25]
        fresh = GENERATORS[name]()
        assert fresh is not p
        assert {g: fresh.fingerprint(g) for g in (1, 25)} == first
        assert len(hashes) == 4

    def test_bad_granularity_still_rejected_after_a_good_call(self):
        p = mesh_problem()
        p.fingerprint(25)
        with pytest.raises(ValueError):
            p.fingerprint(0)
