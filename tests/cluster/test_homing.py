"""How the cluster homes a meeting: the consistent-hash ring is the one
rule, and ``migrate_meeting`` moves exactly what a ring change moves."""

import dataclasses

import pytest

from repro.cluster import (
    ClusterConfig,
    ConsistentHashRing,
    ControllerCluster,
    SOURCE_FALLBACK,
    TRIGGER_REHOME,
    moved_keys,
)
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry

from .conftest import mesh_problem

MEETINGS = [f"m{k}" for k in range(16)]


def make_cluster(**overrides):
    defaults = dict(shards=3)
    defaults.update(overrides)
    return ControllerCluster(ClusterConfig(**defaults))


def ring_of(cluster):
    """A fresh ring over the cluster's live shards."""
    return ConsistentHashRing(cluster.live_shards, vnodes=cluster.config.vnodes)


def hosted(cluster, meetings=MEETINGS):
    for meeting_id in meetings:
        cluster.solve_request(meeting_id, mesh_problem(), 0.0)
    return {m: cluster.meeting(m).shard for m in meetings}


class TestConfig:
    def test_config_has_sizing_knobs_only(self):
        # No placement policy and no cost budget: the ring homes meetings.
        assert [f.name for f in dataclasses.fields(ClusterConfig)] == [
            "shards", "vnodes", "min_interval_s", "max_interval_s",
            "max_solves_per_round", "solver",
        ]


class TestRegistration:
    def test_every_meeting_homes_on_its_ring_shard(self):
        with make_cluster() as cluster:
            ring = ring_of(cluster)
            for meeting_id in MEETINGS:
                assert cluster.register(meeting_id) == ring.node_for(meeting_id)
                assert cluster.meeting(meeting_id).shard == cluster.shard_of(
                    meeting_id
                )

    def test_a_request_homes_an_unseen_meeting_on_the_ring(self):
        with make_cluster() as cluster:
            served = cluster.solve_request("m0", mesh_problem(), 0.0)
            assert served.shard == ring_of(cluster).node_for("m0")


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
        with enabled_registry() as reg, make_cluster() as cluster:
            cluster.register("m0")
            home = cluster.meeting("m0").shard
            assert cluster.migrate_meeting("m0", home, 1.0) is None
            assert cluster.meeting("m0").rehomes == 0
            assert reg.counter(obs_names.CLUSTER_REHOMED, reason="manual").value == 0

    def test_degraded_move_serves_fallback_and_reconverges(self):
        with make_cluster() as cluster:
            cluster.solve_request("m0", mesh_problem(), 0.0)
            source = cluster.meeting("m0").shard
            target = next(s for s in cluster.live_shards if s != source)
            served = cluster.migrate_meeting("m0", target, 1.0, reason="manual")
            assert served is not None
            assert served.source == SOURCE_FALLBACK
            assert served.trigger == TRIGGER_REHOME
            assert cluster.meeting("m0").shard == target
            assert cluster.meeting("m0").rehomes == 1
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

    def test_each_move_is_counted_once_by_reason(self):
        with enabled_registry() as reg, make_cluster() as cluster:
            cluster.register("m0")
            source = cluster.meeting("m0").shard
            target = next(s for s in cluster.live_shards if s != source)
            cluster.migrate_meeting("m0", target, 1.0, reason="manual", degrade=False)
            counter = reg.counter(obs_names.CLUSTER_REHOMED, reason="manual")
            assert counter.value == 1


class TestRingChanges:
    def test_kill_shard_rehomes_exactly_the_dead_shards_meetings_degraded(self):
        with enabled_registry() as reg, make_cluster() as cluster:
            before = hosted(cluster)
            victim = cluster.meeting("m0").shard
            served = cluster.kill_shard(victim, 1.0)
            ring = ring_of(cluster)
            victims = sorted(m for m, s in before.items() if s == victim)
            assert sorted(s.meeting_id for s in served) == victims
            assert all(s.source == SOURCE_FALLBACK for s in served)
            for meeting_id, shard in before.items():
                record = cluster.meeting(meeting_id)
                assert record.shard == ring.node_for(meeting_id)
                assert record.rehomes == (shard == victim)
            rehomed = reg.counter(obs_names.CLUSTER_REHOMED, reason="shard_killed")
            assert rehomed.value == len(victims)

    def test_add_shard_moves_exactly_the_captured_meetings_seamlessly(self):
        with enabled_registry() as reg, make_cluster() as cluster:
            before = hosted(cluster)
            ring_before = ring_of(cluster)
            held = {m: cluster.meeting(m).last_solution for m in MEETINGS}
            cluster.add_shard("shard-9", 1.0)
            moves = moved_keys(ring_before, ring_of(cluster), MEETINGS)
            assert moves and all(new == "shard-9" for _, _, new in moves)
            moved = {m for m, _, _ in moves}
            for meeting_id, shard in before.items():
                record = cluster.meeting(meeting_id)
                assert record.shard == ("shard-9" if meeting_id in moved else shard)
                assert record.rehomes == (meeting_id in moved)
                # Seamless: no fallback was served to anyone.
                assert record.last_solution is held[meeting_id]
                assert record.fallbacks == 0
            rehomed = reg.counter(obs_names.CLUSTER_REHOMED, reason="shard_added")
            assert rehomed.value == len(moves)
