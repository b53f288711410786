"""Hot-shard detection and the live drain loop."""

import pytest

from repro.cluster import ClusterConfig, ControllerCluster, SOURCE_FALLBACK
from repro.placement.migration import HotShardDetector

from ..cluster.conftest import mesh_problem


def make_cluster(**overrides):
    defaults = dict(
        shards=3, placement="best_fit", shard_cost_budget=20.0
    )
    defaults.update(overrides)
    return ControllerCluster(ClusterConfig(**defaults))


def grow(cluster, meeting_id, cost):
    """Simulate a meeting growing to ``cost`` (update the load model)."""
    cluster.load_model.update_cost(meeting_id, cost)


class TestHotShards:
    def test_empty_when_budget_disabled(self):
        with make_cluster() as cluster:
            cluster.register("m0")
            grow(cluster, "m0", 99.0)
            assert HotShardDetector(0.0).hot_shards(cluster) == []

    def test_over_budget_shards_hottest_first(self):
        with make_cluster() as cluster:
            for k in range(3):
                cluster.register(f"m{k}")  # cost 4 each, packed together
            shard = cluster.load_model.shard_of("m0")
            grow(cluster, "m0", 30.0)
            grow(cluster, "m1", 25.0)
            detector = HotShardDetector(20.0)
            assert detector.hot_shards(cluster) == [shard]


class TestRebalance:
    def test_drains_back_inside_budget(self):
        with make_cluster() as cluster:
            for k in range(4):
                cluster.register(f"m{k}")  # 4 x cost 4 -> 16 on one shard
            grow(cluster, "m0", 12.0)  # shard now at 24 > 20
            detector = HotShardDetector(20.0)
            result = detector.rebalance(cluster, 1.0)
            assert result.moves
            assert result.hot_after == []
            loads = cluster.load_model.loads(cluster.live_shards)
            assert all(v <= 20.0 for v in loads.values())

    def test_fixpoint_is_stable_no_ping_pong(self):
        with make_cluster() as cluster:
            for k in range(4):
                cluster.register(f"m{k}")
            grow(cluster, "m0", 12.0)
            detector = HotShardDetector(20.0)
            detector.rebalance(cluster, 1.0)
            again = detector.rebalance(cluster, 2.0)
            assert again.moves == []
            assert again.served == []

    def test_undrainable_overload_is_tolerated(self):
        with make_cluster() as cluster:
            cluster.register("m0")
            grow(cluster, "m0", 50.0)  # one meeting alone over budget
            detector = HotShardDetector(20.0)
            result = detector.rebalance(cluster, 1.0)
            assert result.moves == []
            assert result.hot_after == [cluster.load_model.shard_of("m0")]
            assert not detector.drainable(
                cluster, cluster.load_model.shard_of("m0")
            )

    def test_migration_serves_degraded_fallback(self):
        with make_cluster() as cluster:
            problem = mesh_problem()
            cluster.solve_request("m0", problem, 0.0)
            cluster.solve_request(
                "m1", mesh_problem(ups=(5000, 5000, 450)), 0.0
            )
            grow(cluster, "m0", 30.0)
            detector = HotShardDetector(20.0)
            result = detector.rebalance(cluster, 1.0)
            assert [m[0] for m in result.moves] == ["m0"]
            assert len(result.served) == 1
            assert result.served[0].source == SOURCE_FALLBACK
            assert cluster.migrations == {"hot_shard": 1}

    def test_round_cap_limits_moves(self):
        with make_cluster(shards=2, shard_cost_budget=5.0) as cluster:
            for k in range(8):
                cluster.register(f"m{k}")  # every shard over budget 5
            detector = HotShardDetector(5.0, max_moves_per_round=2)
            result = detector.rebalance(cluster, 1.0)
            assert len(result.moves) <= 2

    def test_rebalance_is_deterministic(self):
        def run():
            with make_cluster() as cluster:
                for k in range(5):
                    cluster.register(f"m{k}")
                grow(cluster, "m0", 18.0)
                grow(cluster, "m1", 7.0)
                result = HotShardDetector(20.0).rebalance(cluster, 1.0)
                return result.to_dict(), cluster.load_model.snapshot()

        assert run() == run()

    def test_budget_disabled_is_a_noop(self):
        with make_cluster() as cluster:
            cluster.register("m0")
            grow(cluster, "m0", 99.0)
            result = HotShardDetector(0.0).rebalance(cluster, 1.0)
            assert result.moves == [] and result.hot_after == []

    def test_rejects_bad_round_cap(self):
        with pytest.raises(ValueError, match="max_moves_per_round"):
            HotShardDetector(10.0, max_moves_per_round=0)
