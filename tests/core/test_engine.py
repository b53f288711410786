"""Unit tests for the memoized solve engine's building blocks."""

import pytest

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.engine import EngineStats, MckpInstanceCache, default_mckp_cache
from repro.core.knapsack import knapsack_step
from repro.core.mckp import CapacityProfile, solve_mckp_dp
from repro.core.types import Resolution, StreamSpec
from repro.obs import enabled_registry
from repro.obs import names as obs_names


CLASSES = ((((100, 1.0), (200, 2.0)),), (((100, 1.0),), ((300, 3.0),)))


def star(ladders, downlinks):
    """One publisher per ladder; every subscriber follows all of them."""
    pubs = {f"P{i}": ladder for i, ladder in enumerate(ladders)}
    bandwidth = {pub: Bandwidth(10_000, 10_000) for pub in pubs}
    bandwidth.update(
        {f"S{i}": Bandwidth(10_000, down) for i, down in enumerate(downlinks)}
    )
    return Problem(
        pubs,
        bandwidth,
        [Subscription(f"S{i}", pub) for i in range(len(downlinks)) for pub in pubs],
    )


LADDER = [StreamSpec(200, Resolution.P360, 2.0), StreamSpec(100, Resolution.P180, 1.0)]
OTHER = [StreamSpec(300, Resolution.P360, 3.0)]


class TestInstanceKey:
    """The profile cache key: ``(granularity, classes)``, never capacity."""

    def _entries_after(self, *steps):
        cache = MckpInstanceCache(capacity=16)
        for problem, granularity in steps:
            knapsack_step(problem, granularity=granularity, cache=cache)
        return len(cache)

    def test_same_instance_same_key(self):
        # Same class structure at any capacity, in any problem: one entry.
        a = star([LADDER], [150, 500, 10**6])
        b = star([LADDER], [320])
        assert self._entries_after((a, 1), (b, 1)) == 1

    def test_distinct_classes_distinct_keys(self):
        a = star([LADDER], [500])
        b = star([OTHER], [500])
        assert self._entries_after((a, 1), (b, 1)) == 2

    def test_granularity_distinguishes(self):
        a = star([LADDER], [500])
        assert self._entries_after((a, 1), (a, 25)) == 2

    def test_capacity_bucketing_shares_within_granularity(self):
        # The DP only sees capacity // granularity slots, so capacities
        # in the same bucket must share one answer...
        profile = CapacityProfile(CLASSES[0], 25)
        assert profile.solution(175) is profile.solution(199)
        # ...and the next bucket, where the 200 kbps item fits, must not.
        assert profile.solution(200) is not profile.solution(199)
        assert profile.solution(200).picks == (1,)

    def test_bucketed_solution_is_a_legal_replay(self):
        # The heart of the equivalence argument: for every capacity in a
        # bucket, the DP returns the identical solution, and its true
        # weight respects the *smallest* capacity of the bucket.
        classes = [[(99, 10.0), (51, 6.0)], [(52, 5.0)]]
        sols = [
            solve_mckp_dp(classes, cap, granularity=50)
            for cap in (150, 151, 173, 199)
        ]
        assert all(s.picks == sols[0].picks for s in sols)
        assert sols[0].total_weight <= 150

    def test_accepts_list_input(self):
        listed = CapacityProfile([list(cls) for cls in CLASSES[1]], 1)
        tupled = CapacityProfile(CLASSES[1], 1)
        for cap in (0, 99, 100, 399, 400, 10**9):
            assert listed.solution(cap) == tupled.solution(cap)


class TestMckpInstanceCache:
    def test_get_miss_then_hit(self):
        cache = MckpInstanceCache(capacity=4)
        key = (1, CLASSES[0])
        assert cache.get(key) is None
        profile = CapacityProfile(CLASSES[0], 1)
        cache.put(key, profile)
        assert cache.get(key) is profile
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = MckpInstanceCache(capacity=2)
        keys = [(g, CLASSES[0]) for g in (1, 2, 3)]
        profile = CapacityProfile(CLASSES[0], 1)
        cache.put(keys[0], profile)
        cache.put(keys[1], profile)
        cache.get(keys[0])  # refresh 0; 1 becomes LRU
        cache.put(keys[2], profile)  # evicts 1
        assert keys[0] in cache and keys[2] in cache
        assert keys[1] not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_clear_keeps_stats(self):
        cache = MckpInstanceCache(capacity=4)
        key = (1, CLASSES[0])
        cache.put(key, CapacityProfile(CLASSES[0], 1))
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_snapshot_shape(self):
        cache = MckpInstanceCache(capacity=8)
        snap = cache.snapshot()
        assert snap == {
            "entries": 0,
            "capacity": 8,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            MckpInstanceCache(capacity=0)

    def test_metrics_emitted_when_registry_enabled(self, monkeypatch):
        # The registry reads the process-wide cache a solver registers.
        from repro.core.solver import GsoSolver

        cache = default_mckp_cache()
        cache.clear()
        monkeypatch.setattr(cache, "capacity", 1)
        keys = [(g, CLASSES[0]) for g in ("a", "b")]
        profile = CapacityProfile(CLASSES[0], 1)
        with enabled_registry() as reg:
            GsoSolver()
            cache.get(keys[0])
            cache.put(keys[0], profile)
            cache.get(keys[0])
            cache.put(keys[1], profile)  # evicts keys[0]
            snap = reg.snapshot()
        cache.clear()
        counters = snap["counters"]
        assert counters[obs_names.MCKP_CACHE + '{result="miss"}'] == 1
        assert counters[obs_names.MCKP_CACHE + '{result="hit"}'] == 1
        assert counters[obs_names.MCKP_CACHE_EVICTIONS] == 1
        assert snap["gauges"][obs_names.MCKP_CACHE_ENTRIES] == 1


class TestEngineStats:
    def test_dp_solves_avoided_sums_all_layers(self):
        stats = EngineStats(
            step1_solved=10, step1_skipped=5, deduped=3, cache_hits=2
        )
        assert stats.dp_solves_avoided == 10
