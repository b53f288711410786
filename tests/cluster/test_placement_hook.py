"""The cluster's placement hook: policies, the load model, migration."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ControllerCluster,
    SOURCE_FALLBACK,
    TRIGGER_REHOME,
)
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry

from .conftest import mesh_problem


def make_cluster(**overrides):
    defaults = dict(shards=3)
    defaults.update(overrides)
    return ControllerCluster(ClusterConfig(**defaults))


class TestConfigValidation:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="least_loaded"):
            ClusterConfig(placement="round_robin")

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            ClusterConfig(shard_cost_budget=-1.0)

    def test_defaults_to_hash(self):
        config = ClusterConfig()
        assert config.placement == "hash"
        assert config.shard_cost_budget == 0.0


class TestRegistration:
    def test_hash_policy_places_on_the_ring(self):
        with make_cluster() as cluster:
            for k in range(12):
                mid = f"m{k}"
                cluster.register(mid)
                assert (
                    cluster.meeting(mid).shard
                    == cluster._ring.node_for(mid)
                    == cluster.load_model.shard_of(mid)
                )

    def test_register_with_problem_records_true_cost(self):
        with make_cluster() as cluster:
            cluster.register("m0", mesh_problem())  # 3-mesh: cost 9
            assert cluster.load_model.cost_of("m0") == 9.0

    def test_register_without_problem_uses_default_cost(self):
        with make_cluster() as cluster:
            cluster.register("m0")
            assert cluster.load_model.cost_of("m0") == 4.0

    def test_resubmission_refreshes_cost(self):
        with make_cluster() as cluster:
            cluster.register("m0")
            cluster.solve_request("m0", mesh_problem(), 0.0)  # picture arrives
            assert cluster.load_model.cost_of("m0") == 9.0

    def test_least_loaded_spreads_evenly(self):
        with make_cluster(placement="least_loaded") as cluster:
            for k in range(6):
                cluster.register(f"m{k}")
            loads = cluster.load_model.loads(cluster.live_shards)
            assert sorted(loads.values()) == [8.0, 8.0, 8.0]

    def test_best_fit_packs_under_budget(self):
        with make_cluster(
            placement="best_fit", shard_cost_budget=12.0
        ) as cluster:
            for k in range(6):
                cluster.register(f"m{k}")  # cost 4: three per shard
            loads = cluster.load_model.loads(cluster.live_shards)
            assert sorted(loads.values()) == [0.0, 12.0, 12.0]

    def test_best_fit_beats_hash_on_max_shard_load(self):
        # Two webinar-sized meetings among thirty pairs, budget 1.05x a
        # balanced packing: hashing strands pairs next to a webinar,
        # packing does not.
        big = mesh_problem(ups=(5000,) * 8, downs=(3000,) * 8)  # cost 64
        pair = mesh_problem(ups=(5000,) * 2, downs=(3000,) * 2)  # cost 4
        fleet = [("w0", big), ("w1", big)]
        fleet += [(f"p{k}", pair) for k in range(30)]
        budget = 1.05 * (2 * 64.0 + 30 * 4.0) / 3

        def max_load(placement):
            with make_cluster(
                placement=placement, shard_cost_budget=budget
            ) as cluster:
                for meeting_id, problem in fleet:
                    cluster.register(meeting_id, problem=problem)
                return max(cluster.load_model.loads().values())

        assert max_load("best_fit") < min(budget, max_load("hash"))

    def test_decisions_counted_per_policy(self):
        with enabled_registry() as reg:
            with make_cluster(placement="least_loaded") as cluster:
                cluster.register("m0")
                cluster.register("m1")
            counter = reg.counter(
                obs_names.PLACEMENT_DECISIONS, policy="least_loaded"
            )
            assert counter.value == 2


class TestMigrateMeeting:
    def test_unknown_meeting_raises(self):
        with make_cluster() as cluster:
            with pytest.raises(KeyError):
                cluster.migrate_meeting("ghost", "shard-0", 0.0)

    def test_dead_target_raises(self):
        with make_cluster() as cluster:
            cluster.register("m0")
            cluster.kill_shard("shard-2", 0.0)
            with pytest.raises(ValueError, match="shard-2"):
                cluster.migrate_meeting("m0", "shard-2", 1.0)

    def test_already_home_is_a_noop(self):
        with make_cluster() as cluster:
            cluster.register("m0")
            home = cluster.meeting("m0").shard
            assert cluster.migrate_meeting("m0", home, 1.0) is None
            assert cluster.migrations == {}

    def test_degraded_move_serves_fallback_and_reconverges(self):
        with make_cluster() as cluster:
            cluster.solve_request("m0", mesh_problem(), 0.0)
            source = cluster.meeting("m0").shard
            target = next(
                s for s in cluster.live_shards if s != source
            )
            served = cluster.migrate_meeting(
                "m0", target, 1.0, reason="manual"
            )
            assert served is not None
            assert served.source == SOURCE_FALLBACK
            assert cluster.meeting("m0").shard == target
            assert cluster.load_model.shard_of("m0") == target
            assert cluster.migrations == {"manual": 1}
            assert served.trigger == TRIGGER_REHOME
            # The next decision re-converges on the target shard.
            followup = cluster.solve_request("m0", mesh_problem(), 10.0)
            assert followup.shard == target
            assert followup.source != SOURCE_FALLBACK

    def test_seamless_move_serves_nothing(self):
        with make_cluster() as cluster:
            cluster.solve_request("m0", mesh_problem(), 0.0)
            source = cluster.meeting("m0").shard
            target = next(s for s in cluster.live_shards if s != source)
            served = cluster.migrate_meeting(
                "m0", target, 1.0, reason="manual", degrade=False
            )
            assert served is None
            assert cluster.meeting("m0").shard == target

    def test_migrations_counted_by_reason(self):
        with enabled_registry() as reg:
            with make_cluster() as cluster:
                cluster.register("m0")
                source = cluster.meeting("m0").shard
                target = next(
                    s for s in cluster.live_shards if s != source
                )
                cluster.migrate_meeting(
                    "m0", target, 1.0, reason="manual", degrade=False
                )
            counter = reg.counter(
                obs_names.PLACEMENT_MIGRATIONS, reason="manual"
            )
            assert counter.value == 1


class TestShardChurn:
    def test_kill_shard_keeps_load_model_consistent(self):
        with make_cluster(placement="best_fit",
                          shard_cost_budget=40.0) as cluster:
            for k in range(6):
                cluster.solve_request(f"m{k}", mesh_problem(), 0.0)
            victim = cluster.live_shards[0]
            cluster.kill_shard(victim, 1.0)
            loads = cluster.load_model.loads()
            assert victim not in loads
            assert sum(loads.values()) == 6 * 9.0
            for k in range(6):
                assert cluster.load_model.shard_of(f"m{k}") in loads
            assert cluster.migrations.get("shard_killed") >= 1

    def test_add_shard_rehomes_only_under_hash(self):
        with make_cluster(placement="best_fit") as cluster:
            for k in range(8):
                cluster.register(f"m{k}")
            before = {
                f"m{k}": cluster.meeting(f"m{k}").shard for k in range(8)
            }
            cluster.add_shard("shard-9", 1.0)
            after = {
                f"m{k}": cluster.meeting(f"m{k}").shard for k in range(8)
            }
            assert before == after  # packing policies are sticky
            assert cluster.load_model.load("shard-9") == 0.0

    def test_stats_expose_the_placement_section(self):
        with make_cluster(
            placement="best_fit", shard_cost_budget=25.0
        ) as cluster:
            cluster.register("m0")
            stats = cluster.stats()["placement"]
            assert stats["policy"] == "best_fit"
            assert stats["budget"] == 25.0
            assert stats["meetings"] == 1
            assert stats["total_cost"] == 4.0
            assert stats["migrations"] == {}
