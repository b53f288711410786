"""Tests for the named scenario registry."""

import pytest

from repro.chaos import faults as F
from repro.chaos.runner import ChaosConfig
from repro.chaos.scenarios import get_scenario, list_scenarios

EXPECTED = {
    "healthy",
    "shard_churn",
    "feedback_loss",
    "bandwidth_collapse",
    "publisher_churn",
    "stale_snapshot",
    "unfixable",
    "kitchen_sink",
}


class TestRegistry:
    def test_expected_scenarios_registered(self):
        assert {s.name for s in list_scenarios()} == EXPECTED

    def test_listing_is_sorted(self):
        names = [s.name for s in list_scenarios()]
        assert names == sorted(names)

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="healthy"):
            get_scenario("earthquake")

    def test_descriptions_are_present(self):
        assert all(s.description for s in list_scenarios())


class TestBuilders:
    def test_healthy_is_empty(self):
        config = ChaosConfig()
        assert len(get_scenario("healthy").build(1, config)) == 0

    def test_builders_are_deterministic(self):
        config = ChaosConfig()
        for scenario in list_scenarios():
            a = scenario.build(5, config)
            b = scenario.build(5, config)
            assert a.to_dicts() == b.to_dicts(), scenario.name

    def test_faults_land_inside_the_run(self):
        config = ChaosConfig(duration_s=8.0)
        for scenario in list_scenarios():
            for fault in scenario.build(3, config):
                assert 0.0 <= fault.at_s <= config.duration_s, scenario.name

    def test_unfixable_is_a_lone_uncleared_solver_fault(self):
        schedule = get_scenario("unfixable").build(1, ChaosConfig())
        kinds = [f.kind for f in schedule]
        assert kinds == [F.SOLVER_FAULT]

    def test_targets_stay_inside_the_world(self):
        config = ChaosConfig(meetings=3)
        valid = {f"chaos-{k}" for k in range(config.meetings)}
        for scenario in list_scenarios():
            for fault in scenario.build(2, config):
                if fault.kind not in F.SHARD_KINDS and fault.target:
                    assert fault.target in valid, (scenario.name, fault)
