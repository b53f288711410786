"""The operator guide and the instrumentation must not drift apart.

``docs/OBSERVABILITY.md`` promises that every metric and span name it
documents is exactly what the registry emits.  These tests enforce both
directions: every canonical name (``repro.obs.names``) appears verbatim
in the guide, and everything a fully-instrumented end-to-end run emits is
a canonical name.
"""

import re
from pathlib import Path

import pytest

from repro.obs import names
from repro.obs.registry import enabled_registry

ROOT = Path(__file__).resolve().parents[2]
DOCS = ROOT / "docs" / "OBSERVABILITY.md"


@pytest.fixture(scope="module")
def guide_text():
    assert DOCS.is_file(), f"operator guide missing: {DOCS}"
    return DOCS.read_text()


class TestDocsCoverNames:
    def test_every_metric_documented(self, guide_text):
        missing = [m for m in names.ALL_METRICS if m not in guide_text]
        assert not missing, f"metrics absent from docs/OBSERVABILITY.md: {missing}"

    def test_every_span_documented(self, guide_text):
        missing = [s for s in names.ALL_SPANS if s not in guide_text]
        assert not missing, f"spans absent from docs/OBSERVABILITY.md: {missing}"

    def test_every_label_documented(self, guide_text):
        for metric, (_, labels) in names.ALL_METRICS.items():
            for label in labels:
                # The label must be named in the guide (tables write them
                # as `label` ∈ {...} or a bare column entry).
                assert re.search(rf"\b{label}\b", guide_text), (
                    f"label {label!r} of {metric} not documented"
                )

    def test_docs_name_no_unknown_repro_metrics(self, guide_text):
        """Any repro_* token the guide mentions must be canonical (or a
        summary-derived _sum/_count series of a canonical histogram)."""
        mentioned = set(re.findall(r"\brepro_[a-z0-9_]+\b", guide_text))
        derived = {
            base + suffix
            for base, (kind, _) in names.ALL_METRICS.items()
            if kind == "histogram"
            for suffix in ("_sum", "_count")
        }
        unknown = mentioned - set(names.ALL_METRICS) - derived
        assert not unknown, f"docs mention unknown metrics: {sorted(unknown)}"


class TestNamesRegistryConsistency:
    def test_counters_end_in_total(self):
        for metric, (kind, _) in names.ALL_METRICS.items():
            if kind == "counter":
                assert metric.endswith("_total"), metric
            else:
                assert not metric.endswith("_total"), metric

    def test_all_metrics_namespaced(self):
        for metric in names.ALL_METRICS:
            assert metric.startswith("repro_"), metric

    def test_registry_accepts_every_canonical_series(self):
        """Every documented (name, labels) combination is a valid series."""
        with enabled_registry() as reg:
            for metric, (kind, labels) in names.ALL_METRICS.items():
                labelset = {label: "x" for label in labels}
                if kind == "counter":
                    reg.counter(metric, **labelset).inc()
                elif kind == "gauge":
                    reg.gauge(metric, **labelset).set(1.0)
                else:
                    reg.histogram(metric, **labelset).observe(1.0)
            assert set(reg.metric_names()) == set(names.ALL_METRICS)


class TestEmittedNamesAreCanonical:
    def test_end_to_end_emission_subset_of_canonical(self):
        """Drive the solver + controller surface and check everything the
        registry saw is in ALL_METRICS."""
        from repro.core import (
            Bandwidth,
            GsoSolver,
            ProblemBuilder,
            Resolution,
            paper_ladder,
        )

        b = ProblemBuilder()
        ladder = paper_ladder()
        b.add_client("A", Bandwidth(500, 3000), ladder)
        b.add_client("B", Bandwidth(5000, 3000), ladder)
        b.subscribe("A", "B", Resolution.P360)
        b.subscribe("B", "A", Resolution.P720)
        with enabled_registry() as reg:
            GsoSolver().solve(b.build())
        emitted = set(reg.metric_names())
        assert emitted  # the run actually recorded something
        unknown = emitted - set(names.ALL_METRICS)
        assert not unknown, f"uncatalogued metrics emitted: {sorted(unknown)}"

    def test_emitted_spans_are_canonical(self):
        from repro.core import (
            Bandwidth,
            GsoSolver,
            ProblemBuilder,
            Resolution,
            paper_ladder,
        )

        b = ProblemBuilder()
        ladder = paper_ladder()
        b.add_client("A", Bandwidth(5000, 3000), ladder)
        b.add_client("B", Bandwidth(5000, 3000), ladder)
        b.subscribe("A", "B", Resolution.P360)
        b.subscribe("B", "A", Resolution.P720)
        with enabled_registry() as reg:
            GsoSolver().solve(b.build())
        snap = reg.snapshot()
        seen_spans = {
            m.group(1)
            for key in snap["histograms"]
            for m in [re.search(r'span="([^"]+)"', key)]
            if m
        }
        assert seen_spans  # spans were recorded
        assert seen_spans <= set(names.ALL_SPANS)


class TestTelemetryNamesCovered:
    """The telemetry pipeline's names are canonical and documented."""

    TELEMETRY_METRICS = (
        names.EVENTS_EMITTED,
        names.EVENTS_DROPPED,
        names.SLO_EVALUATIONS,
        names.SLO_BREACHES,
    )

    def test_telemetry_metrics_are_canonical(self):
        registered = {
            m
            for m in names.ALL_METRICS
            if m.startswith(("repro_events_", "repro_slo_"))
        }
        assert registered == set(self.TELEMETRY_METRICS)

    def test_telemetry_spans_are_canonical(self):
        assert names.SPAN_SLO_EVALUATE in names.ALL_SPANS

    def test_telemetry_metrics_documented(self, guide_text):
        for metric in self.TELEMETRY_METRICS:
            assert metric in guide_text, metric
        assert names.SPAN_SLO_EVALUATE in guide_text

    def test_event_vocabulary_documented(self, guide_text):
        from repro.obs.events import ALL_EVENT_KINDS, EVENTS_SCHEMA

        assert EVENTS_SCHEMA in guide_text
        for kind in ALL_EVENT_KINDS:
            assert re.search(rf"\b{kind}\b", guide_text), (
                f"event kind {kind!r} not documented"
            )

    def test_slo_catalog_documented(self, guide_text):
        from repro.obs.slo import DEFAULT_SLOS

        for slo in DEFAULT_SLOS:
            assert re.search(rf"\b{slo.name}\b", guide_text), (
                f"SLO {slo.name!r} not documented"
            )

    def test_telemetry_run_emits_only_canonical_names(self):
        from repro.chaos import ChaosConfig, run_scenario
        from repro.obs.events import record_events

        with enabled_registry() as reg, record_events():
            run_scenario(
                "bandwidth_collapse",
                seed=1,
                config=ChaosConfig(seed=1, meetings=2, duration_s=4.0),
            )
            emitted = set(reg.metric_names())
        assert {
            names.EVENTS_EMITTED,
            names.SLO_EVALUATIONS,
        } <= emitted
        assert emitted <= set(names.ALL_METRICS)


class TestChaosNamesCovered:
    """The chaos subsystem's names are canonical and documented."""

    CHAOS_METRICS = (
        names.CHAOS_FAULTS,
        names.CHAOS_CHECKS,
        names.CHAOS_VIOLATIONS,
        names.CHAOS_RUNS,
        names.CHAOS_RECOVERY_SECONDS,
    )

    def test_chaos_metrics_are_canonical(self):
        registered = {
            m for m in names.ALL_METRICS if m.startswith("repro_chaos_")
        }
        assert registered == set(self.CHAOS_METRICS)

    def test_chaos_spans_are_canonical(self):
        assert names.SPAN_CHAOS_RUN in names.ALL_SPANS

    def test_chaos_metrics_documented(self, guide_text):
        for metric in self.CHAOS_METRICS:
            assert metric in guide_text, metric
        assert names.SPAN_CHAOS_RUN in guide_text

    def test_chaos_run_emits_only_canonical_names(self):
        from repro.chaos import ChaosConfig, run_scenario

        with enabled_registry() as reg:
            run_scenario(
                "unfixable",
                seed=1,
                config=ChaosConfig(seed=1, meetings=2, duration_s=4.0),
            )
            emitted = set(reg.metric_names())
        assert {
            names.CHAOS_FAULTS,
            names.CHAOS_CHECKS,
            names.CHAOS_RUNS,
        } <= emitted
        assert emitted <= set(names.ALL_METRICS)


class TestNoDeletedSurface:
    """PR 21 deleted the in-band KMR trace collector (``TraceCollector``,
    its JSONL schema, ``obs solve --trace-out``) and the span tree: a
    decision's iterations are replayed by ``core/explain.py`` / ``repro
    trace show --cid``.  Docstrings and guides outlived them once; they
    must not name them again."""

    GONE = ("merged_ladders", "kmr_trace", "--trace-out")

    def test_no_source_file_or_guide_names_the_deleted_trace(self):
        texts = [
            *sorted((ROOT / "src").rglob("*.py")),
            *sorted((ROOT / "docs").glob("*.md")),
            ROOT / "README.md",
            ROOT / "DESIGN.md",
            ROOT / "EXPERIMENTS.md",
            ROOT / "ROADMAP.md",
        ]
        assert len(texts) > 100
        stale = [
            (str(path.relative_to(ROOT)), token)
            for path in texts
            for token in self.GONE
            if token in path.read_text()
        ]
        assert not stale, f"names of the deleted solver trace: {stale}"
