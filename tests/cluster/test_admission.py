"""Admission control: the in-flight budget and its shed accounting."""

import pytest

from repro.cluster import AdmissionController, ClusterConfig, ControllerCluster
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry

from .conftest import mesh_problem


class TestAdmit:
    def test_under_budget_admits_all(self):
        ctrl = AdmissionController(max_solves_per_round=2)
        assert not ctrl.over_budget(0)
        assert not ctrl.over_budget(1)

    def test_over_budget_at_the_in_flight_cap(self):
        ctrl = AdmissionController(max_solves_per_round=2)
        assert ctrl.over_budget(2)
        assert ctrl.over_budget(3)

    def test_stats_accumulate(self):
        ctrl = AdmissionController(max_solves_per_round=1)
        ctrl.admit_one()
        ctrl.shed_one()
        ctrl.admit_one()
        assert ctrl.stats.admitted == 2
        assert ctrl.stats.shed == 1
        assert ctrl.stats.total == 3

    def test_shed_metric(self):
        # The cluster-wide count, not a shard's: it survives the shard.
        with enabled_registry() as reg:
            cluster = ControllerCluster(ClusterConfig(shards=1))
            cluster.shed_request("m0", mesh_problem(), now_s=0.0)
            cluster.shed_request("m0", mesh_problem(), now_s=1.0)
            assert reg.snapshot()["counters"][obs_names.CLUSTER_SHED] == 2
        assert cluster.stats()["shards"]["shard-0"]["shed"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_solves_per_round=0)
