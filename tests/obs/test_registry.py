"""Tests for the metrics registry: instruments, snapshot, export."""

import json
import math
import time

import pytest

from repro.obs import names
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable,
    enable,
    enabled_registry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_x_total") is reg.counter("repro_x_total")

    def test_labels_split_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_msgs_total", kind="semb")
        b = reg.counter("repro_msgs_total", kind="tmmbr")
        a.inc()
        assert a is not b
        assert b.value == 0

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_t_total", x="1", y="2")
        b = reg.counter("repro_t_total", y="2", x="1")
        assert a is b

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("repro_t_total").inc(-1)

    def test_rejects_bad_metric_name(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name!")

    def test_rejects_bad_label_name(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("repro_ok_total", **{"bad-label": "x"})


class TestHistogram:
    def test_empty_percentile_is_nan(self):
        h = MetricsRegistry().histogram("repro_h")
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.mean)

    def test_single_observation(self):
        h = MetricsRegistry().histogram("repro_h")
        h.observe(7.0)
        assert h.percentile(0) == 7.0
        assert h.percentile(50) == 7.0
        assert h.percentile(100) == 7.0
        assert h.count == 1 and h.sum == 7.0
        assert h.min == 7.0 and h.max == 7.0

    def test_percentile_interpolates(self):
        h = MetricsRegistry().histogram("repro_h")
        for v in (0.0, 10.0):
            h.observe(v)
        assert h.percentile(50) == pytest.approx(5.0)
        assert h.percentile(90) == pytest.approx(9.0)

    def test_percentile_range_checked(self):
        h = MetricsRegistry().histogram("repro_h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_exact_stats_unaffected_by_reservoir_bound(self):
        reg = MetricsRegistry(reservoir_size=8)
        h = reg.histogram("repro_h")
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000
        assert h.sum == sum(range(1000))
        assert h.min == 0.0 and h.max == 999.0
        assert len(h.reservoir) <= 8

    def test_reservoir_stays_evenly_spaced(self):
        reg = MetricsRegistry(reservoir_size=8)
        h = reg.histogram("repro_h")
        for v in range(100):
            h.observe(float(v))
        res = h.reservoir
        gaps = [b - a for a, b in zip(res, res[1:])]
        assert len(set(gaps)) == 1  # evenly spaced subsample

    def test_deterministic(self):
        def fill():
            h = Histogram(("repro_h", ()), reservoir_size=16)
            for v in range(500):
                h.observe(v * 0.5)
            return h.reservoir, h.percentile(90)

        assert fill() == fill()

    def test_bounded_percentile_tracks_distribution(self):
        reg = MetricsRegistry(reservoir_size=64)
        h = reg.histogram("repro_h")
        for v in range(10000):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(5000, rel=0.1)
        assert h.percentile(99) == pytest.approx(9900, rel=0.1)


def _level():
    """A watched source: the registry's only way to report a gauge."""
    yield names.MCKP_CACHE_ENTRIES, {}, 1.5


class TestSnapshotAndExport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("repro_events_total", kind="a").inc(3)
        reg.watch(_level)
        h = reg.histogram("repro_latency_seconds")
        h.observe(0.1)
        h.observe(0.3)
        return reg

    def test_snapshot_shape(self):
        snap = self._populated().snapshot()
        assert snap["counters"]['repro_events_total{kind="a"}'] == 3
        assert snap["gauges"][names.MCKP_CACHE_ENTRIES] == 1.5
        hist = snap["histograms"]["repro_latency_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.4)
        assert hist["p50"] == pytest.approx(0.2)

    def test_metric_names(self):
        assert self._populated().metric_names() == [
            "repro_events_total",
            "repro_latency_seconds",
            names.MCKP_CACHE_ENTRIES,
        ]

    def test_prometheus_text(self):
        text = self._populated().to_prometheus_text()
        assert "# TYPE repro_events_total counter" in text
        assert 'repro_events_total{kind="a"} 3' in text
        assert f"# TYPE {names.MCKP_CACHE_ENTRIES} gauge" in text
        assert "# TYPE repro_latency_seconds summary" in text
        assert "repro_latency_seconds_count 2" in text
        assert 'quantile="0.5"' in text
        assert text.endswith("\n")

    def test_json_round_trips(self):
        parsed = json.loads(self._populated().to_json())
        assert parsed["gauges"][names.MCKP_CACHE_ENTRIES] == 1.5

    def test_reset(self):
        reg = self._populated()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestNullRegistryAndGlobalState:
    def test_default_registry_is_disabled(self):
        assert isinstance(get_registry(), (NullRegistry, MetricsRegistry))

    def test_null_registry_records_nothing(self):
        reg = NullRegistry()
        reg.counter("repro_c_total").inc()
        reg.watch(_level)
        reg.histogram("repro_h").observe(1.0)
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert not reg.enabled

    def test_null_instruments_shared(self):
        reg = NullRegistry()
        assert reg.counter("repro_a_total") is reg.counter("repro_b_total")

    def test_enable_disable_cycle(self):
        previous = get_registry()
        try:
            reg = enable()
            assert reg.enabled and get_registry() is reg
            assert enable() is reg  # idempotent
            disable()
            assert not get_registry().enabled
        finally:
            set_registry(previous)

    def test_enabled_registry_restores(self):
        previous = get_registry()
        with enabled_registry() as reg:
            assert get_registry() is reg
            assert reg.enabled
        assert get_registry() is previous

    def test_enabled_registry_restores_on_error(self):
        previous = get_registry()
        with pytest.raises(RuntimeError):
            with enabled_registry():
                raise RuntimeError("boom")
        assert get_registry() is previous

    def test_noop_mode_overhead_smoke(self):
        """Disabled instruments must be no-op cheap: 100k counter incs
        and histogram observes in well under a second."""
        reg = NullRegistry()
        counter = reg.counter("repro_smoke_total")
        hist = reg.histogram("repro_smoke")
        start = time.perf_counter()
        for _ in range(100_000):
            counter.inc()
            hist.observe(1.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"no-op instruments too slow: {elapsed:.3f}s"
