"""Chaos x telemetry integration: every run carries SLO verdicts, an
event log digest, and correlated serve rows — deterministically."""

from repro.chaos import ChaosConfig, ChaosRunner, get_scenario, run_scenario
from repro.obs.registry import enabled_registry
from repro.obs.slo import evaluate_slos


def _config(seed=1, **overrides):
    base = dict(seed=seed, meetings=3, duration_s=8.0, shards=2)
    base.update(overrides)
    return ChaosConfig(**base)


class TestReportSloFields:
    def test_every_run_reports_deterministic_verdicts(self):
        report = run_scenario("healthy", 1, _config())
        names = [v["name"] for v in report.slo]
        assert names == [
            "kmr_iteration_bound",
            "degraded_serve_rate",
            "stream_interruption_s",
            "stage_delivery_p95",
            "stage_mailbox_dwell_p95",
            "stage_shed_p95",
            "stage_solve_p95",
        ]
        assert all(v["deterministic"] for v in report.slo)
        assert report.slo_ok

    def test_wall_clock_verdicts_stay_out_of_digest(self):
        # With no registry the latency SLO is SKIP but still reported
        # informationally; either way it must never enter `slo`.
        report = run_scenario("healthy", 1, _config())
        info_names = [v["name"] for v in report.slo_informational]
        assert info_names == ["solve_latency_p95"]
        assert "slo_informational" not in report.to_dict()

    def test_solve_latency_measured_with_registry(self):
        with enabled_registry():
            report = run_scenario("healthy", 1, _config())
        (latency,) = report.slo_informational
        assert latency["value"] is not None
        assert latency["value"] > 0.0

    def test_event_log_embedded_in_report(self):
        report = run_scenario("bandwidth_collapse", 2, _config(seed=2))
        assert report.events_total > 0
        assert len(report.event_digest) == 64

    def test_serves_carry_correlation_ids(self):
        report = run_scenario("healthy", 1, _config())
        assert report.serves
        for row in report.serves:
            assert row["cid"].startswith(row["meeting"] + "#")

    def test_summary_renders_slo_verdicts(self):
        report = run_scenario("healthy", 1, _config())
        summary = report.summary()
        assert "SLO PASS kmr_iteration_bound" in summary
        assert "(wall-clock)" in summary
        assert "events:" in summary


class TestDeterminism:
    def test_same_seed_same_digest_and_verdicts(self):
        runs = [run_scenario("kitchen_sink", 7, _config(seed=7))
                for _ in range(2)]
        assert runs[0].digest() == runs[1].digest()
        assert runs[0].event_digest == runs[1].event_digest
        assert runs[0].slo == runs[1].slo

    def test_registry_does_not_change_digest(self):
        plain = run_scenario("feedback_loss", 3, _config(seed=3))
        with enabled_registry():
            instrumented = run_scenario(
                "feedback_loss", 3, _config(seed=3)
            )
        assert plain.digest() == instrumented.digest()


class TestCustomEngine:
    """The runner's verdicts are the SLO table's, evaluated once."""

    def test_report_rows_are_evaluate_slos_rows(self):
        # The unfixable scenario forces fallbacks: its serve-derived rows
        # must equal evaluate_slos over the report's own serves.
        config = _config()
        report = run_scenario("unfixable", 1, config)
        expected = {
            v.name: v.to_dict()
            for v in evaluate_slos(
                serves=report.serves, duration_s=config.duration_s
            )
        }
        by_name = {v["name"]: v for v in report.slo}
        assert report.served_by_source.get("fallback", 0) > 0
        for name in ("degraded_serve_rate", "stream_interruption_s"):
            assert by_name[name] == expected[name]
        # SLO breaches are observability, not invariant violations.
        assert report.ok

    def test_runner_keeps_verdict_objects(self):
        config = _config()
        runner = ChaosRunner(
            config, get_scenario("healthy").build(1, config),
            scenario="healthy",
        )
        report = runner.run()
        assert len(runner.slo_verdicts) == (
            len(report.slo) + len(report.slo_informational)
        )
        assert {v.name for v in runner.slo_verdicts} == (
            {v["name"] for v in report.slo}
            | {v["name"] for v in report.slo_informational}
        )
