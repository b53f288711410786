"""The hot_shard scenario: skewed growth, live drain, budget invariant."""

from repro.chaos import ChaosConfig, ChaosRunner, get_scenario, run_scenario
from repro.chaos.invariants import INV_SHARD_BUDGET

SEEDS = (0, 1, 2, 3)


def scenario_config(seed):
    scenario = get_scenario("hot_shard")
    params = {**ChaosConfig().to_dict(), "seed": seed}
    params.update(scenario.config_overrides)
    return scenario, ChaosConfig(**params)


class TestScenario:
    def test_overrides_pin_placement_and_budget(self):
        scenario = get_scenario("hot_shard")
        assert scenario.config_overrides["placement"] == "best_fit"
        assert scenario.config_overrides["shard_cost_budget"] > 0

    def test_runs_clean_with_zero_violations(self):
        for seed in SEEDS:
            report = run_scenario("hot_shard", seed)
            assert report.ok, report.summary()
            assert report.violations == []
            assert report.checks.get(INV_SHARD_BUDGET, 0) > 0, seed

    def test_detector_migrations_restore_the_budget(self):
        drained = 0
        for seed in SEEDS:
            scenario, config = scenario_config(seed)
            runner = ChaosRunner(
                config, scenario.build(seed, config), scenario=scenario.name
            )
            report = runner.run()
            assert report.ok, report.summary()
            drained += runner.cluster.migrations.get("hot_shard", 0)
            # End state: every live shard fits the budget, or is stuck at
            # an undrainable fixpoint the invariant explicitly tolerates.
            loads = runner.cluster.load_model.loads(
                runner.cluster.live_shards
            )
            for shard, load in loads.items():
                assert load <= runner.detector.budget or not (
                    runner.detector.drainable(runner.cluster, shard)
                ), (seed, shard, load)
        # The overload faults actually forced live migrations somewhere.
        assert drained > 0

    def test_byte_deterministic_across_replays(self):
        for seed in SEEDS[:2]:
            a = run_scenario("hot_shard", seed)
            b = run_scenario("hot_shard", seed)
            assert a.digest() == b.digest()

    def test_caller_sizing_survives_unrelated_fields(self):
        # run_scenario merges overrides on top of the caller's config:
        # pinned fields win, everything else is preserved.
        config = ChaosConfig(duration_s=6.0, report_interval_s=1.0)
        scenario, merged = scenario_config(5)
        assert merged.placement == "best_fit"
        report = run_scenario("hot_shard", 5, config)
        assert report.ok
