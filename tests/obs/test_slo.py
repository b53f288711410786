"""Tests for the SLO table: the paper-pinned rows, their measures, and
burn-rate verdict semantics."""

import pytest

from repro.obs import names
from repro.obs.registry import MetricsRegistry, enabled_registry
from repro.obs.slo import (
    SLOS,
    STAGE_BUDGETS_S,
    Slo,
    SloVerdict,
    evaluate_slos,
    verdict_word,
)


def serve(t, meeting="m", source="solve", delivered=True):
    return {"t": t, "meeting": meeting, "source": source,
            "delivered": delivered}


def verdict(name, **inputs):
    """The verdict of the row ``name`` for a run with ``inputs``."""
    (out,) = [v for v in evaluate_slos(**inputs) if v.name == name]
    return out


def word(v):
    return verdict_word(v.to_dict())


class TestCatalog:
    def test_default_catalog_names(self):
        assert [s.name for s in SLOS] == [
            "solve_latency_p95",
            "kmr_iteration_bound",
            "degraded_serve_rate",
            "stream_interruption_s",
            "stage_delivery_p95",
            "stage_mailbox_dwell_p95",
            "stage_shed_p95",
            "stage_solve_p95",
        ]

    def test_measure_labels_and_thresholds(self):
        assert [(s.measure, s.threshold) for s in SLOS] == [
            (f"histogram_p95:{names.CLUSTER_SOLVE_SECONDS}", 0.25),
            ("stat:kmr_iteration_ratio_max", 1.0),
            ("serves_degraded_fraction", 0.5),
            ("serves_max_interruption_s", 6.0),
        ] + [
            (f"stage_p95:{stage}", STAGE_BUDGETS_S[stage])
            for stage in sorted(STAGE_BUDGETS_S)
        ]

    def test_only_solve_latency_is_wall_clock(self):
        wall = [s.name for s in SLOS if not s.deterministic]
        assert wall == ["solve_latency_p95"]

    def test_every_objective_cites_the_paper(self):
        for slo in SLOS:
            assert slo.paper_ref, slo.name

    def test_comparator_validated(self):
        with pytest.raises(ValueError):
            Slo(name="x", description="", measure="stat:k",
                threshold=1.0, value_of=lambda run, t0: None,
                comparator="<")


class TestMeasures:
    def test_degraded_fraction(self):
        v = verdict(
            "degraded_serve_rate",
            serves=[serve(1.0), serve(2.0, source="fallback"),
                    serve(3.0, source="shed"), serve(4.0)],
            duration_s=5.0,
        )
        assert v.value == pytest.approx(0.5)
        assert v.ok

    def test_interruption_recovered(self):
        # Degraded at t=2, recovered at t=5 -> 3 s interruption.
        v = verdict(
            "stream_interruption_s",
            serves=[serve(1.0), serve(2.0, source="fallback"),
                    serve(5.0)],
            duration_s=10.0,
        )
        assert v.value == pytest.approx(3.0)
        assert v.ok

    def test_interruption_unrecovered_charged_to_run_end(self):
        # Degraded at t=2, never recovers in a 10 s run -> 8 s.
        v = verdict(
            "stream_interruption_s",
            serves=[serve(1.0), serve(2.0, source="fallback")],
            duration_s=10.0,
        )
        assert v.value == pytest.approx(8.0)
        assert not v.ok
        assert word(v) in ("FAIL", "BURN")

    def test_stat_measure(self):
        v = verdict("kmr_iteration_bound", iteration_ratio_max=0.4,
                    duration_s=1.0)
        assert v.value == pytest.approx(0.4)
        # A whole-run scalar has no trailing-window view.
        assert v.recent_value is None
        assert v.ok

    def test_histogram_measure_from_registry(self):
        reg = MetricsRegistry()
        h = reg.histogram(names.CLUSTER_SOLVE_SECONDS, shard="s0")
        for v in (0.01, 0.02, 0.9):
            h.observe(v)
        v = verdict("solve_latency_p95", registry=reg, duration_s=1.0)
        # The registry histogram interpolates within its buckets, so the
        # p95 lands near (not exactly on) the 0.9 s outlier.
        assert v.value is not None
        assert 0.25 < v.value <= 0.9
        assert not v.ok

    def test_stage_budget_measure(self):
        samples = [(t, 0.1) for t in range(9)] + [(9.0, 2.0)]
        v = verdict("stage_solve_p95", stage_latencies={"solve": samples},
                    duration_s=10.0)
        assert v.value == pytest.approx(1.145)
        assert not v.ok
        assert v.recent_value == pytest.approx(1.905)
        assert word(v) == "BURN"

    def test_missing_inputs_yield_skip(self):
        verdicts = evaluate_slos(duration_s=1.0)
        assert len(verdicts) == len(SLOS)
        assert all(v.value is None for v in verdicts)
        assert all(v.ok for v in verdicts)  # vacuously true
        assert all(word(v) == "SKIP" for v in verdicts)


class TestBurnRate:
    def test_transient_breach_is_fail_not_burn(self):
        # Early fallback storm, healthy tail: full window breaches but
        # the trailing 25 % window is clean.
        serves = [serve(t, source="fallback")
                  for t in (1.0, 2.0, 3.0, 4.0)]
        serves += [serve(t) for t in (8.0, 9.0, 9.5)]
        v = verdict("degraded_serve_rate", serves=serves, duration_s=10.0)
        assert not v.ok
        assert not v.fast_burn
        assert word(v) == "FAIL"

    def test_ongoing_breach_is_burn(self):
        serves = [serve(t, source="fallback")
                  for t in (1.0, 3.0, 8.0, 9.0, 9.5)]
        v = verdict("degraded_serve_rate", serves=serves, duration_s=10.0)
        assert not v.ok
        assert v.fast_burn
        assert word(v) == "BURN"
        assert v.recent_value == pytest.approx(1.0)

    def test_recent_window_is_the_last_quarter(self):
        # 7.5 s opens the trailing window of a 10 s run; 7.4 s is before it.
        serves = [serve(7.4, source="fallback"), serve(7.5)]
        v = verdict("degraded_serve_rate", serves=serves, duration_s=10.0)
        assert v.value == pytest.approx(0.5)
        assert v.recent_value == pytest.approx(0.0)


class TestVerdictEncoding:
    def test_to_dict_rounds_and_keeps_flags(self):
        verdict = SloVerdict(
            name="x", description="", measure="stat:k", threshold=1.0,
            comparator="<=", unit="ratio", deterministic=True,
            paper_ref="", value=0.1234567, recent_value=None, ok=True,
            fast_burn=False,
        )
        row = verdict.to_dict()
        assert row["value"] == 0.123457
        assert row["recent_value"] is None
        assert row["deterministic"] is True

    def test_engine_records_evaluation_metrics(self):
        with enabled_registry() as reg:
            evaluate_slos(serves=[serve(1.0, source="shed")], duration_s=1.0)
            snap = reg.snapshot()["counters"]
        evaluated = [k for k in snap if k.startswith(names.SLO_EVALUATIONS)]
        assert len(evaluated) == len(SLOS)
        breached = [k for k in snap if k.startswith(names.SLO_BREACHES)]
        assert any("degraded_serve_rate" in k for k in breached)
