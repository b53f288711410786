"""The registry reads each number from the stats object that owns it.

``MetricsRegistry.watch`` registers a source; every export reads it.  A
watched counter counts from watch time, several owners of one series
add up, and the registry keeps the small stats objects, never the
components that own them.
"""

import gc
import weakref

import pytest

from repro.chaos import ChaosConfig, get_scenario
from repro.chaos.runner import ChaosRunner, FeedbackStats
from repro.chaos.soak import soak
from repro.cluster import ClusterConfig, ControllerCluster
from repro.core.engine import default_mckp_cache
from repro.core.mckp import kernel_stats
from repro.ingress.aio import SimRuntime
from repro.ingress.plane import IngressPlane, PlaneStats
from repro.obs import names
from repro.obs.events import EventLog
from repro.obs.registry import MetricsRegistry, NullRegistry, enabled_registry
from repro.obs.tracing import assemble_trees


class Owner:
    def __init__(self):
        self.count = 0
        self.level = 0

    def samples(self):
        yield names.CLUSTER_SHED, {}, self.count
        yield names.CLUSTER_MEETINGS, {"shard": "s0"}, self.level


class TestWatch:
    def test_counter_counts_from_watch_time_and_gauge_is_read_as_is(self):
        owner = Owner()
        owner.count, owner.level = 5, 3
        reg = MetricsRegistry()
        reg.watch(owner.samples)
        snap = reg.snapshot()
        assert names.CLUSTER_SHED not in snap["counters"]  # not moved yet
        assert snap["gauges"][names.CLUSTER_MEETINGS + '{shard="s0"}'] == 3
        owner.count += 2
        assert reg.snapshot()["counters"][names.CLUSTER_SHED] == 2

    def test_watch_is_idempotent_per_source(self):
        owner = Owner()
        reg = MetricsRegistry()
        reg.watch(owner.samples)
        owner.count = 4
        reg.watch(owner.samples)  # neither a second series nor a new baseline
        assert reg.snapshot()["counters"][names.CLUSTER_SHED] == 4

    def test_owners_of_one_series_add_up_and_the_last_gauge_wins(self):
        a, b = Owner(), Owner()
        reg = MetricsRegistry()
        reg.watch(a.samples)
        reg.watch(b.samples)
        a.count, b.count = 1, 2
        a.level, b.level = 7, 9
        snap = reg.snapshot()
        assert snap["counters"][names.CLUSTER_SHED] == 3
        assert snap["gauges"][names.CLUSTER_MEETINGS + '{shard="s0"}'] == 9

    def test_every_export_merges_watched_series(self):
        owner = Owner()
        reg = MetricsRegistry()
        reg.watch(owner.samples)
        owner.count = 1
        reg.counter(names.KMR_SOLVES).inc()
        text = reg.to_prometheus_text()
        assert "# TYPE repro_cluster_shed_total counter" in text
        assert "repro_cluster_shed_total 1" in text
        assert 'repro_cluster_meetings{shard="s0"} 0' in text
        assert names.CLUSTER_SHED in reg.metric_names()
        assert '"repro_cluster_shed_total": 1.0' in reg.to_json()
        reg.reset()
        assert reg.metric_names() == []

    def test_null_registry_watches_nothing(self):
        reg = NullRegistry()
        reg.watch(Owner().samples)
        assert reg.snapshot()["gauges"] == {}


class TestOwnersRegister:
    def test_an_object_built_before_the_registry_is_not_reported(self):
        log = EventLog()
        with enabled_registry() as reg:
            log.emit("solve_served", t=0.0)
            assert names.EVENTS_EMITTED not in reg.metric_names()
            EventLog().emit("solve_served", t=0.0)
            assert reg.snapshot()["counters"][names.EVENTS_EMITTED] == 1

    def test_a_plane_registers_its_stats_when_built(self):
        with enabled_registry() as reg:
            plane = IngressPlane(SimRuntime(), backend=None)
            plane.stats.offered = 3
            counters = reg.snapshot()["counters"]
        assert counters[names.INGRESS_EVENTS] == 3

    def test_the_registry_keeps_stats_objects_not_components(self):
        with enabled_registry() as reg:
            runner = ChaosRunner(
                ChaosConfig(seed=1, meetings=2, duration_s=3.0)
            )
            runner.run()
            held = [weakref.ref(x) for x in (runner.plane, runner.events, runner.cluster)]
            del runner
            gc.collect()
            assert all(ref() is None for ref in held)
            assert reg.snapshot()["counters"][names.EVENTS_EMITTED] > 0
        owners = {type(source.__self__) for source in reg._sources}
        assert IngressPlane not in owners and PlaneStats in owners
        assert ChaosRunner not in owners and FeedbackStats in owners


def _run_kitchen_sink():
    cfg = ChaosConfig(seed=1)
    runner = ChaosRunner(
        cfg, get_scenario("kitchen_sink").build(1, cfg), scenario="kitchen_sink"
    )
    runner.run()
    return runner


class TestWatchedSeriesEqualTheirOwners:
    def test_kitchen_sink(self):
        cache, kernel = default_mckp_cache().stats, kernel_stats().solves
        sweeps = kernel_stats().class_sweeps
        with enabled_registry() as reg:
            before = (cache.hits, cache.misses, cache.evictions, kernel["optional"])
            runner = _run_kitchen_sink()
            # A run keeps no forest: assemble its log at query time, as
            # `repro trace` does, so the assembler's counters register.
            traces = assemble_trees(runner.events.events).stats
            snap = reg.snapshot()
        counters, gauges = snap["counters"], snap["gauges"]

        def got(name, labels):
            key = name
            if labels:
                key += "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"
            return counters.get(key, gauges.get(key, 0))

        plane, cluster = runner.plane.stats, runner.cluster.counters
        feedback = runner.feedback
        log = runner.events.stats
        assert plane.offered and cluster.solve_requests and log.emitted
        want = {
            (names.INGRESS_EVENTS, ()): plane.offered,
            (names.INGRESS_COALESCED, ()): plane.coalesced,
            (names.INGRESS_SHED, (("reason", "overflow"),)): plane.shed_overflow,
            (names.INGRESS_SHED, (("reason", "admission"),)): plane.shed_admission,
            (names.INGRESS_DROPPED_EVENTS, ()): feedback.dropped,
            (names.INGRESS_DELAYED_EVENTS, ()): feedback.delayed,
            (names.CLUSTER_SOLVE_REQUESTS, ()): cluster.solve_requests,
            (names.CLUSTER_SHED, ()): cluster.shed,
            (names.CLUSTER_FALLBACKS, ()): cluster.fallbacks,
            (names.CLUSTER_SHARD_FAILOVERS, ()): cluster.shard_failovers,
            (names.EVENTS_EMITTED, ()): log.emitted,
            (names.EVENTS_DROPPED, ()): log.dropped,
            (names.TRACE_TREES_ASSEMBLED, ()): traces.assembled,
            (names.TRACE_ORPHAN_EVENTS, ()): traces.orphan_events,
            (names.MCKP_CACHE, (("result", "hit"),)): cache.hits - before[0],
            (names.MCKP_CACHE, (("result", "miss"),)): cache.misses - before[1],
            (names.MCKP_CACHE_EVICTIONS, ()): cache.evictions - before[2],
            (names.MCKP_SOLVES, ()): kernel["optional"] - before[3],
            (names.MCKP_CLASS_SWEEPS, ()): kernel_stats().class_sweeps - sweeps,
            (names.MCKP_CACHE_ENTRIES, ()): len(default_mckp_cache()),
        }
        for shard, count in cluster.meetings.items():
            want[(names.CLUSTER_MEETINGS, (("shard", shard),))] = count
        for (name, labels), value in want.items():
            assert got(name, labels) == value, (name, labels)


class TestTotalsAcrossRuns:
    def test_a_two_seed_soak_reports_the_sum_of_its_runs(self, monkeypatch):
        runners = []
        run = ChaosRunner.run

        def recording_run(self):
            runners.append(self)
            return run(self)

        monkeypatch.setattr(ChaosRunner, "run", recording_run)
        with enabled_registry() as reg:
            result = soak(seeds=2, scenarios=["feedback_loss"])
            counters = reg.snapshot()["counters"]
        assert result.ok and len(runners) == 4  # two seeds, each run twice
        assert counters[names.EVENTS_EMITTED] == sum(
            r.events.emitted for r in runners
        )
        assert counters[names.INGRESS_EVENTS] == sum(
            r.plane.stats.offered for r in runners
        )
        assert counters[names.CLUSTER_SOLVE_REQUESTS] == sum(
            r.cluster.counters.solve_requests for r in runners
        )
        assert counters[names.INGRESS_DROPPED_EVENTS] == sum(
            r.feedback.dropped for r in runners
        )


class TestMonotonicAcrossRestart:
    def test_no_cluster_counter_goes_down_in_shard_churn(self, monkeypatch):
        seen = []
        add_shard = ControllerCluster.add_shard

        def observed_add_shard(self, *args, **kwargs):
            seen.append(reg.snapshot()["counters"])
            name = add_shard(self, *args, **kwargs)
            seen.append(reg.snapshot()["counters"])
            return name

        monkeypatch.setattr(ControllerCluster, "add_shard", observed_add_shard)
        cfg = ChaosConfig(seed=5)
        with enabled_registry() as reg:
            runner = ChaosRunner(
                cfg, get_scenario("shard_churn").build(5, cfg), scenario="shard_churn"
            )
            report = runner.run()
            seen.append(reg.snapshot()["counters"])
        restarted = [f for f in report.faults if f["kind"] == "restart_shard"]
        assert restarted and restarted[0]["outcome"] == "applied"
        cluster_keys = [
            names.CLUSTER_SOLVE_REQUESTS,
            names.CLUSTER_FALLBACKS,
            names.CLUSTER_SHED,
            names.CLUSTER_SHARD_FAILOVERS,
        ]
        assert seen[-1][names.CLUSTER_SHARD_FAILOVERS] >= 1
        for earlier, later in zip(seen, seen[1:]):
            for key in cluster_keys:
                assert later.get(key, 0) >= earlier.get(key, 0), key


@pytest.mark.parametrize("shards", [1, 3])
def test_meetings_gauge_follows_homing(shards):
    with enabled_registry() as reg, ControllerCluster(
        ClusterConfig(shards=shards)
    ) as cluster:
        for k in range(6):
            cluster.register(f"m{k}")
        gauges = reg.snapshot()["gauges"]
        want = cluster.stats()["shards"]
    meetings = {k: v for k, v in gauges.items() if k.startswith(names.CLUSTER_MEETINGS)}
    assert sum(meetings.values()) == 6
    for shard, row in want.items():
        assert gauges[f'{names.CLUSTER_MEETINGS}{{shard="{shard}"}}'] == row["meetings"]
