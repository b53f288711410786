"""Admission control: one in-flight budget for the whole plane, and its
shed accounting."""

import pytest

from repro.chaos.world import ChaosWorld
from repro.cluster import ClusterConfig, ControllerCluster
from repro.ingress.aio import SimRuntime
from repro.ingress.events import SembReport
from repro.ingress.plane import SHED_ADMISSION, ClusterBackend, IngressPlane
from repro.obs import events as obs_events
from repro.obs import names as obs_names
from repro.obs.events import EventLog
from repro.obs.registry import enabled_registry

from .conftest import mesh_problem


def make_cluster(**overrides):
    return ControllerCluster(ClusterConfig(**overrides))


class TestAdmit:
    def test_under_budget_admits_all(self):
        cluster = make_cluster(shards=1, max_solves_per_round=2)
        assert not cluster.over_budget("m0", in_flight=0)
        assert not cluster.over_budget("m0", in_flight=1)

    def test_over_budget_at_the_in_flight_cap(self):
        cluster = make_cluster(shards=1, max_solves_per_round=2)
        assert cluster.over_budget("m0", in_flight=2)
        assert cluster.over_budget("m0", in_flight=3)

    def test_budget_is_the_same_on_every_shard(self):
        cluster = make_cluster(shards=4, max_solves_per_round=3)
        meetings = [f"m{k}" for k in range(16)]
        assert len({cluster.register(m) for m in meetings}) > 1
        for in_flight, over in ((0, False), (2, False), (3, True)):
            assert {
                cluster.over_budget(m, in_flight=in_flight) for m in meetings
            } == {over}

    def test_stats_accumulate(self):
        cluster = make_cluster(shards=1, max_solves_per_round=1)
        problem = mesh_problem()
        cluster.solve_request("m0", problem, now_s=0.0)
        cluster.shed_request("m0", problem, now_s=1.0)
        cluster.solve_request("m0", problem, now_s=2.0)  # a memo hit
        stats = cluster.stats()
        assert stats["solve_requests"] == 2
        assert stats["shed"] == 1
        # A shed serves the fallback, so it counts as one too.
        assert stats["fallbacks"] == 1
        assert stats["shards"]["shard-0"] == {
            "alive": True,
            "meetings": 1,
            "solves": 2,
            "fallbacks": 1,
            "shed": 1,
        }

    def test_shed_metric(self):
        # The cluster-wide count, not a shard's: it survives the shard.
        with enabled_registry() as reg:
            cluster = make_cluster(shards=1)
            cluster.shed_request("m0", mesh_problem(), now_s=0.0)
            cluster.shed_request("m0", mesh_problem(), now_s=1.0)
            assert reg.snapshot()["counters"][obs_names.CLUSTER_SHED] == 2
        assert cluster.stats()["shards"]["shard-0"]["shed"] == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="max_solves_per_round"):
            ClusterConfig(max_solves_per_round=0)


def run_two_shards(max_solves_per_round):
    """Two meetings homed on different shards, whose windows close at one
    instant; returns (first, second, homes, plane, cluster, event log)."""
    world = ChaosWorld(seed=1, meetings=4)
    cluster = make_cluster(shards=2, max_solves_per_round=max_solves_per_round)
    homes = {m: cluster.register(m) for m in world.meeting_ids}
    first = world.meeting_ids[0]
    second = next(m for m in world.meeting_ids if homes[m] != homes[first])
    plane = IngressPlane(SimRuntime(), ClusterBackend(cluster, world))
    log = EventLog()
    with obs_events.record_events(log):
        plane.run_stream(
            [SembReport(0.0, first), SembReport(0.0, second)],
            duration_s=2.0,
        )
    return first, second, homes, plane, cluster, log


class TestPlaneWideBudget:
    def test_a_solve_on_one_shard_sheds_a_meeting_on_another(self):
        # The first decision's solve is still in flight when the second
        # one asks for admission.
        first, second, homes, plane, cluster, log = run_two_shards(1)
        # A shed commits at once; the solve commits when its service ends.
        assert len(plane.decisions) == 2
        assert {d.meeting: d.source for d in plane.decisions} == {
            first: "solve", second: "shed",
        }
        sheds = [e for e in log.events if e.kind == obs_events.INGRESS_SHED]
        assert [(e.meeting, e.attrs["reason"]) for e in sheds] == [
            (second, SHED_ADMISSION),
        ]
        shards = cluster.stats()["shards"]
        assert shards[homes[first]]["shed"] == 0
        assert shards[homes[second]]["shed"] == 1

    def test_a_budget_of_two_solves_both(self):
        first, second, homes, plane, cluster, log = run_two_shards(2)
        assert {d.meeting: d.source for d in plane.decisions} == {
            first: "solve", second: "solve",
        }
        assert not [e for e in log.events if e.kind == obs_events.INGRESS_SHED]
        assert cluster.stats()["shed"] == 0
