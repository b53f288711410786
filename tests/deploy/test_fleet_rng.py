"""Seeded fleet randomness: order-independent and reproducible."""

import datetime as dt
import pickle
import random

from repro.deploy import DeploymentSimulation, FleetSampler

DAY = dt.date(2021, 12, 25)


class TestPerConferenceRng:
    def test_same_derivation_same_conference(self):
        sim = DeploymentSimulation(seed=7)
        sampler = FleetSampler(random.Random(0))
        a = sampler.sample_conference(rng=sim._conference_rng(DAY, 3))
        b = sampler.sample_conference(rng=sim._conference_rng(DAY, 3))
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_draws_are_order_independent(self):
        sim = DeploymentSimulation(seed=7)
        sampler = FleetSampler(random.Random(0))
        in_order = [
            sampler.sample_conference(rng=sim._conference_rng(DAY, i))
            for i in range(4)
        ]
        reversed_draws = {
            i: sampler.sample_conference(rng=sim._conference_rng(DAY, i))
            for i in reversed(range(4))
        }
        for i, conf in enumerate(in_order):
            assert pickle.dumps(conf) == pickle.dumps(reversed_draws[i])

    def test_explicit_rng_does_not_consume_sampler_stream(self):
        shared = random.Random(42)
        sampler = FleetSampler(shared)
        sim = DeploymentSimulation(seed=7)
        sampler.sample_conference(rng=sim._conference_rng(DAY, 0))
        # The sampler's own stream is untouched by the explicit-rng draw.
        control = FleetSampler(random.Random(42)).sample_conference()
        assert pickle.dumps(sampler.sample_conference()) == pickle.dumps(
            control
        )

    def test_seeds_differ_per_day_index_and_master(self):
        sim7 = DeploymentSimulation(seed=7)
        sim8 = DeploymentSimulation(seed=8)
        r = sim7._conference_rng(DAY, 0).random()
        assert r != sim7._conference_rng(DAY, 1).random()
        assert r != sim7._conference_rng(DAY + dt.timedelta(days=1), 0).random()
        assert r != sim8._conference_rng(DAY, 0).random()

    def test_run_day_deterministic_across_instances(self):
        a = DeploymentSimulation(conferences_per_day=30).run_day(DAY)
        b = DeploymentSimulation(conferences_per_day=30).run_day(DAY)
        assert pickle.dumps(a) == pickle.dumps(b)
