"""Integration tests: the chaos runner driving the ingress plane on the
real cluster."""

import dataclasses

import pytest

from repro.chaos import faults as F
from repro.chaos.faults import Fault, FaultSchedule
from repro.chaos.runner import ChaosConfig, ChaosRunner
from repro.cluster.cluster import (
    SOURCE_CACHE,
    SOURCE_FALLBACK,
    SOURCE_SOLVE,
)
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry


def small_config(**overrides):
    base = dict(seed=1, meetings=2, duration_s=6.0, shards=2)
    base.update(overrides)
    return ChaosConfig(**base)


def run(schedule=None, **overrides):
    return ChaosRunner(small_config(**overrides), schedule).run()


class TestHealthyRun:
    def test_no_faults_no_violations(self):
        report = run()
        assert report.ok
        assert report.faults == []
        assert report.serves

    def test_every_meeting_converges_to_full_solutions(self):
        report = run()
        for meeting, summary in report.meetings.items():
            assert summary["applied_source"] in (SOURCE_SOLVE, SOURCE_CACHE)
            assert summary["fallbacks"] == 0

    def test_invariants_checked_on_every_serve(self):
        report = run()
        assert report.checks["constraints"] == len(report.serves)
        assert report.checks["kmr_convergence"] == len(report.serves)
        assert report.checks["fallback_availability"] > 0

    def test_same_seed_byte_identical_reports(self):
        a, b = run(), run()
        assert a.to_json() == b.to_json()
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        assert run(seed=1).digest() != run(seed=2).digest()


class TestSolverFault:
    def schedule(self, at=2.2, target="chaos-0"):
        return FaultSchedule().add(Fault(at, F.SOLVER_FAULT, target=target))

    def test_poisoned_meeting_degrades_within_one_tick(self):
        report = run(self.schedule())
        assert report.ok
        fallbacks = [
            s
            for s in report.serves
            if s["meeting"] == "chaos-0" and s["source"] == SOURCE_FALLBACK
        ]
        assert fallbacks
        # The next report lands within one report interval, its decision
        # window is one min interval (both 1 s), then the solve service.
        assert fallbacks[0]["t"] <= 2.2 + 1.0 + 1.0 + 0.01

    def test_poisoned_meeting_stays_on_fallback(self):
        report = run(self.schedule())
        after = [
            s
            for s in report.serves
            if s["meeting"] == "chaos-0" and s["t"] > 2.2
        ]
        assert after
        assert all(s["source"] == SOURCE_FALLBACK for s in after)
        assert report.meetings["chaos-0"]["applied_source"] == SOURCE_FALLBACK

    def test_unfixable_fault_is_deterministic(self):
        a = run(self.schedule())
        b = run(self.schedule())
        assert a.digest() == b.digest()

    def test_clear_heals_and_counts_recovery(self):
        schedule = self.schedule(at=2.2).add(
            Fault(3.8, F.CLEAR_SOLVER_FAULT, target="chaos-0")
        )
        report = run(schedule)
        assert report.ok
        assert report.meetings["chaos-0"]["applied_source"] in (
            SOURCE_SOLVE,
            SOURCE_CACHE,
        )
        assert report.meetings["chaos-0"]["fallback_recoveries"] == 1

    def test_other_meetings_unaffected(self):
        report = run(self.schedule())
        other = [s for s in report.serves if s["meeting"] == "chaos-1"]
        assert all(s["source"] != SOURCE_FALLBACK for s in other)


class TestShardFaults:
    def test_kill_shard_rehomes_and_recovers(self):
        schedule = FaultSchedule().add(Fault(2.7, F.KILL_SHARD))
        report = run(schedule)
        assert report.ok
        event = report.faults[0]
        assert event["outcome"] == "applied"
        # Re-homed meetings were served a fallback during handover, then
        # re-converged to full solutions.
        if event["rehomed"]:
            assert any(
                s["source"] == SOURCE_FALLBACK for s in report.serves
            )
        for summary in report.meetings.values():
            assert summary["applied_source"] in (SOURCE_SOLVE, SOURCE_CACHE)

    def test_kill_last_shard_is_skipped_not_fatal(self):
        schedule = FaultSchedule().add(Fault(2.0, F.KILL_SHARD))
        report = run(schedule, shards=1)
        assert report.ok
        assert report.faults[0]["outcome"] == "skipped"

    def test_restart_after_kill(self):
        schedule = (
            FaultSchedule()
            .add(Fault(2.0, F.KILL_SHARD))
            .add(Fault(4.0, F.RESTART_SHARD))
        )
        report = run(schedule)
        assert report.ok
        assert [f["outcome"] for f in report.faults] == ["applied", "applied"]

    def test_restart_without_dead_shard_is_skipped(self):
        schedule = FaultSchedule().add(Fault(2.0, F.RESTART_SHARD))
        report = run(schedule)
        assert report.faults[0]["outcome"] == "skipped"

    def test_add_shard_grows_ring(self):
        schedule = FaultSchedule().add(Fault(2.0, F.ADD_SHARD))
        report = run(schedule)
        assert report.ok
        assert report.faults[0]["outcome"] == "applied"

    def test_add_existing_live_shard_is_skipped(self):
        schedule = FaultSchedule().add(
            Fault(2.0, F.ADD_SHARD, target="shard-0")
        )
        report = run(schedule)
        assert report.faults[0]["outcome"] == "skipped"


class TestFeedbackFaults:
    def test_drop_report_suppresses_submissions(self):
        schedule = FaultSchedule().add(
            Fault(1.0, F.DROP_REPORT, target="chaos-0", factor=2)
        )
        report = run(schedule)
        assert report.ok
        assert report.meetings["chaos-0"]["reports_dropped"] == 2

    def test_dropped_reports_survive_event_log_overflow(self, monkeypatch):
        # The count is taken where the drop is decided, not re-derived
        # from the events the ring still holds.
        import repro.chaos.runner as runner_module
        from repro.obs.events import EventLog

        monkeypatch.setattr(
            runner_module, "EventLog", lambda: EventLog(capacity=16)
        )
        schedule = FaultSchedule().add(
            Fault(1.0, F.DROP_REPORT, target="chaos-0", factor=2)
        )
        runner = ChaosRunner(small_config(), schedule)
        report = runner.run()
        assert runner.events.dropped > 0
        assert runner.plane.stats.dropped == 2
        assert report.meetings["chaos-0"]["reports_dropped"] == 2

    def test_lose_tmmbr_skips_application_then_heals(self):
        schedule = FaultSchedule().add(
            Fault(1.0, F.LOSE_TMMBR, target="chaos-0")
        )
        report = run(schedule)
        assert report.ok
        assert report.meetings["chaos-0"]["tmmbr_lost"] == 1
        undelivered = [s for s in report.serves if not s["delivered"]]
        assert len(undelivered) == 1
        # A later delivery healed the lost push.
        later = [
            s
            for s in report.serves
            if s["meeting"] == "chaos-0" and s["t"] > undelivered[0]["t"]
        ]
        assert any(s["delivered"] for s in later)

    def test_delay_report_defers_but_recovers(self):
        schedule = FaultSchedule().add(
            Fault(1.0, F.DELAY_REPORT, target="chaos-0", factor=1.5)
        )
        report = run(schedule)
        assert report.ok
        assert report.faults[0]["outcome"] == "applied"


class TestWorldFaults:
    def test_bandwidth_collapse_and_recovery(self):
        schedule = (
            FaultSchedule()
            .add(Fault(1.5, F.DOWNLINK_COLLAPSE, target="chaos-0", factor=0.1))
            .add(Fault(4.0, F.BANDWIDTH_RECOVER, target="chaos-0"))
        )
        report = run(schedule)
        assert report.ok
        assert [f["outcome"] for f in report.faults] == ["applied", "applied"]

    def test_publisher_churn(self):
        schedule = (
            FaultSchedule()
            .add(Fault(1.5, F.PUBLISHER_JOIN, target="chaos-0"))
            .add(Fault(3.5, F.PUBLISHER_LEAVE, target="chaos-0"))
        )
        report = run(schedule)
        assert report.ok

    def test_stale_snapshot_still_satisfies_invariants(self):
        schedule = (
            FaultSchedule()
            .add(Fault(1.5, F.UPLINK_COLLAPSE, target="chaos-0", factor=0.3))
            .add(Fault(3.5, F.STALE_SNAPSHOT, target="chaos-0", factor=1))
        )
        report = run(schedule)
        assert report.ok
        stale = [f for f in report.faults if f["kind"] == F.STALE_SNAPSHOT]
        assert stale[0]["outcome"] == "applied"


#: Faults that need an earlier one to have something to act on.
PREREQUISITE = {
    F.RESTART_SHARD: Fault(1.0, F.KILL_SHARD),
    F.CLEAR_SOLVER_FAULT: Fault(1.0, F.SOLVER_FAULT, target="chaos-0"),
}
FACTOR = {
    F.DOWNLINK_COLLAPSE: 0.2,
    F.UPLINK_COLLAPSE: 0.2,
    F.DROP_REPORT: 2,
    F.DELAY_REPORT: 1.5,
    F.STALE_SNAPSHOT: 1,
}


class TestEveryFaultKind:
    @pytest.mark.parametrize("kind", F.FAULT_KINDS)
    def test_applies_alone_through_the_plane(self, kind):
        target = "" if kind in F.SHARD_KINDS else "chaos-0"
        fault = Fault(2.6, kind, target=target, factor=FACTOR.get(kind, 0))
        schedule = FaultSchedule([fault])
        if kind in PREREQUISITE:
            schedule.add(PREREQUISITE[kind])
        runner = ChaosRunner(small_config(meetings=3), schedule)
        report = runner.run()
        assert report.ok, report.summary()
        (row,) = [f for f in report.faults if f["kind"] == kind]
        assert row["outcome"] == "applied"
        injected = [
            e for e in runner.events.events
            if e.kind == "fault_injected" and e.attrs.get("fault") == kind
        ]
        assert len(injected) == 1 and injected[0].t == 2.6
        # Every configuration went out through the plane or a handover.
        assert runner.plane.stats.decisions + sum(
            f.get("rehomed", 0) for f in report.faults
        ) == len(report.serves)

    def test_fault_on_unknown_meeting_is_skipped(self):
        schedule = FaultSchedule(
            [Fault(2.0, F.DOWNLINK_COLLAPSE, target="ghost", factor=0.1)]
        )
        report = run(schedule)
        assert report.ok
        assert report.faults[0]["outcome"] == "skipped"

    def test_non_finite_collapse_is_rejected_not_fatal(self):
        # Refused when the fault is built, so it never reaches the plane
        # (which rejects such a link scale at the offer on its own,
        # tests/ingress/test_plane.py); the rest of the run is unharmed.
        with pytest.raises(ValueError, match="finite"):
            Fault(2.0, F.DOWNLINK_COLLAPSE, target="chaos-0", factor=float("inf"))
        report = run(FaultSchedule([Fault(2.0, F.DOWNLINK_COLLAPSE, target="chaos-0", factor=0.2)]))
        assert report.ok
        assert report.faults[0]["outcome"] == "applied"


class TestObsIntegration:
    def test_fault_and_run_counters_emitted(self):
        schedule = FaultSchedule().add(
            Fault(1.0, F.LOSE_TMMBR, target="chaos-0")
        )
        with enabled_registry() as reg:
            report = ChaosRunner(small_config(), schedule).run()
            snap = reg.snapshot()["counters"]
        assert report.ok
        assert any(obs_names.CHAOS_FAULTS in key for key in snap)
        assert any(
            obs_names.CHAOS_RUNS in key and 'verdict="pass"' in key
            for key in snap
        )

    def test_recovery_histogram_observed(self):
        schedule = (
            FaultSchedule()
            .add(Fault(2.2, F.SOLVER_FAULT, target="chaos-0"))
            .add(Fault(3.8, F.CLEAR_SOLVER_FAULT, target="chaos-0"))
        )
        with enabled_registry() as reg:
            ChaosRunner(small_config(), schedule).run()
            snap = reg.snapshot()["histograms"]
        (key,) = [k for k in snap if obs_names.CHAOS_RECOVERY_SECONDS in k]
        # Degraded at the 3.232370 s decision, healed at the 4.393408 s
        # one (the seed-1 stream's first chaos-0 report after the clear).
        assert snap[key]["count"] == 1
        assert abs(snap[key]["sum"] - (4.393408 - 3.23237)) < 1e-6


class TestConfigValidation:
    def test_rejects_bad_durations(self):
        with pytest.raises(ValueError):
            ChaosConfig(duration_s=0)
        with pytest.raises(ValueError):
            ChaosConfig(report_interval_s=-1.0)
        with pytest.raises(ValueError):
            ChaosConfig(meetings=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("report_interval_s", float("nan")),
            ("report_interval_s", float("inf")),
            ("mean_size", float("nan")),
            ("mean_size", float("inf")),
            ("mutations_per_meeting", float("nan")),
            ("mutations_per_meeting", float("inf")),
            ("mutations_per_meeting", -0.5),
        ],
    )
    def test_rejects_non_finite_sizing(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChaosConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,message",
        [
            ("shards", "need at least one shard"),
            ("max_solves_per_round", "max_solves_per_round must be >= 1"),
        ],
    )
    def test_rejects_an_empty_cluster(self, field, message):
        # Refused at construction, not when the runner builds its cluster.
        with pytest.raises(ValueError, match=message):
            ChaosConfig(**{field: 0})

    def test_config_has_sizing_knobs_only(self):
        # No placement policy, no cost budget and no plane tuning: the
        # ring homes meetings and the plane runs on its defaults.
        assert [f.name for f in dataclasses.fields(ChaosConfig)] == [
            "seed", "meetings", "duration_s", "report_interval_s", "shards",
            "max_solves_per_round", "mean_size", "mutations_per_meeting",
        ]
