"""Integration tests: the chaos runner driving the ingress plane on the
real cluster."""

import dataclasses

import pytest

from repro.chaos import faults as F
from repro.chaos.faults import Fault, FaultSchedule
from repro.chaos.runner import (
    DELAY_SEMB,
    DROP_SEMB,
    ChaosConfig,
    ChaosRunner,
)
from repro.chaos.world import ChaosWorld
from repro.cluster.cluster import (
    SOURCE_CACHE,
    SOURCE_FALLBACK,
    SOURCE_SOLVE,
)
from repro.ingress.events import KIND_SEMB, StreamConfig, generate_stream
from repro.obs import names as obs_names
from repro.obs.events import LogStats
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


def stream_of(config):
    """The stream a runner with ``config`` delivers (SEMB reports of the
    seed-1 two-meeting stream: chaos-0 at 0.36, 1.14, 2.23, 3.39, 4.63,
    5.83 s and chaos-1 at 0.48, 1.65, 2.79, 3.73, 4.73, 5.59 s; at a 2 s
    report interval chaos-0 at 0.71, 2.29, 4.46 s and chaos-1 at 0.96,
    3.30, 5.59 s)."""
    return generate_stream(
        config.seed,
        ChaosWorld(
            seed=config.seed, meetings=config.meetings,
            mean_size=config.mean_size,
        ),
        StreamConfig(
            duration_s=config.duration_s,
            report_interval_s=config.report_interval_s,
            mutations_per_meeting=config.mutations_per_meeting,
        ),
    )


def drop(at_s, target="chaos-0", factor=1.0):
    return Fault(at_s, F.DROP_REPORT, target=target, factor=factor)


def delay(at_s, target="chaos-0", factor=1.0):
    return Fault(at_s, F.DELAY_REPORT, target=target, factor=factor)


#: (faults, the reports they hit as (meeting, from_s, to_s, hold_s or None
#: for a drop), reports dropped per meeting, reports held).  A report is
#: hit when stamped in the half-open [from_s, to_s).
REPORT_WINDOW_CASES = {
    "drop_targets_its_meeting": (
        [drop(1.0, "chaos-1", 2)], [("chaos-1", 1.0, 3.0, None)],
        {"chaos-1": 2}, 0,
    ),
    "untargeted_drop_hits_the_first_meeting": (
        [drop(1.0, "", 2)], [("chaos-0", 1.0, 3.0, None)], {"chaos-0": 2}, 0,
    ),
    "drop_floors_at_one_interval": (
        [drop(2.0, factor=0.25)], [("chaos-0", 2.0, 3.0, None)],
        {"chaos-0": 1}, 0,
    ),
    # Both edges are chaos-0 report stamps (2.23037 + 1.161038 is exactly
    # 3.391408): the first report is dropped, the second is not.
    "window_is_half_open": (
        [drop(2.23037, factor=3.391408 - 2.23037)],
        [("chaos-0", 2.23037, 3.391408, None)], {"chaos-0": 1}, 0,
    ),
    "delay_holds_one_interval_of_reports": (
        [delay(1.0, "chaos-1", 1.5)], [("chaos-1", 1.0, 2.0, 1.5)], {}, 1,
    ),
    "delay_floors_at_one_interval": (
        [delay(2.0, factor=0.5)], [("chaos-0", 2.0, 3.0, 1.0)], {}, 1,
    ),
    "overlapping_holds_sum": (
        [delay(2.0, factor=1.5), delay(2.0, factor=2.0)],
        [("chaos-0", 2.0, 3.0, 3.5)], {}, 1,
    ),
    "partly_overlapping_holds_sum_where_they_overlap": (
        [delay(0.3), delay(1.0, factor=2.0)],
        [("chaos-0", 0.3, 1.0, 1.0), ("chaos-0", 1.0, 1.3, 3.0),
         ("chaos-0", 1.3, 2.0, 2.0)],
        {}, 2,
    ),
    "drop_beats_a_hold_scheduled_first": (
        [delay(1.0, factor=2.0), drop(1.0)], [("chaos-0", 1.0, 2.0, None)],
        {"chaos-0": 1}, 0,
    ),
    "drop_beats_a_hold_where_they_overlap": (
        [delay(0.3), drop(1.0)],
        [("chaos-0", 0.3, 1.0, 1.0), ("chaos-0", 1.0, 2.0, None)],
        {"chaos-0": 1}, 1,
    ),
    "each_meeting_gets_its_own_window": (
        [drop(1.0, "chaos-0", 2), delay(1.0, "chaos-1", 1.5)],
        [("chaos-0", 1.0, 3.0, None), ("chaos-1", 1.0, 2.0, 1.5)],
        {"chaos-0": 2}, 1,
    ),
    # Two drop windows over one report count it once.
    "overlapping_drops_count_each_report_once": (
        [drop(1.0, factor=2), drop(2.0, factor=2)],
        [("chaos-0", 1.0, 4.0, None)], {"chaos-0": 3}, 0,
    ),
    "a_meeting_blacked_out_for_the_run": (
        [drop(0.0, "chaos-1", 6)], [("chaos-1", 0.0, 6.0, None)],
        {"chaos-1": 6}, 0,
    ),
    # Held past the 6 s stream horizon, still offered while the plane drains.
    "hold_past_the_horizon": (
        [delay(5.0, factor=3)], [("chaos-0", 5.0, 6.0, 3.0)], {}, 1,
    ),
    "unknown_meeting_hits_nothing": ([drop(1.0, "ghost", 5)], [], {}, 0),
    "other_kinds_open_no_window": (
        [
            Fault(1.0, F.DOWNLINK_COLLAPSE, target="chaos-0", factor=0.2),
            Fault(1.0, F.LOSE_TMMBR, target="chaos-0"),
            Fault(1.0, F.STALE_SNAPSHOT, target="chaos-0", factor=1),
        ],
        [], {}, 0,
    ),
}

#: Cases at a 2 s report interval: a window and a hold are ``factor``
#: report intervals, so each of these hits other reports, or holds them
#: longer, than the same faults at 1 s.
TWO_SECOND_INTERVAL_CASES = {
    "drop_floors_at_one_interval": (
        [drop(1.0, factor=0.25)], [("chaos-0", 1.0, 3.0, None)],
        {"chaos-0": 1}, 0,
    ),
    "drop_window_scales_with_the_interval": (
        [drop(2.0, factor=1.25)], [("chaos-0", 2.0, 4.5, None)],
        {"chaos-0": 2}, 0,
    ),
    "delay_holds_one_interval_of_reports": (
        [delay(2.0, "chaos-1", 1.2)], [("chaos-1", 2.0, 4.0, 2.4)], {}, 1,
    ),
    "delay_hold_scales_with_the_interval": (
        [delay(2.0, factor=1.2)], [("chaos-0", 2.0, 4.0, 2.4)], {}, 1,
    ),
}


class TestFeedbackFaults:
    @pytest.mark.parametrize(
        "interval_s, faults, hits, dropped, delayed",
        [(1.0, *case) for case in REPORT_WINDOW_CASES.values()]
        + [(2.0, *case) for case in TWO_SECOND_INTERVAL_CASES.values()],
        ids=list(REPORT_WINDOW_CASES)
        + [f"interval_2s-{name}" for name in TWO_SECOND_INTERVAL_CASES],
    )
    def test_report_windows_drop_or_hold_each_report(
        self, interval_s, faults, hits, dropped, delayed
    ):
        runner = ChaosRunner(
            small_config(report_interval_s=interval_s),
            FaultSchedule(list(faults)),
        )
        report = runner.run()
        assert report.ok, report.summary()
        faulted = {
            e.attrs["seq"]: (e.attrs["fault"], e.attrs.get("delay_s"), e.t)
            for e in runner.events.events
            if e.kind == "fault_injected"
            and e.attrs["fault"] in (DROP_SEMB, DELAY_SEMB)
        }
        # A fault's own link or churn event is offered with seq 0 too.
        offered = {
            (e.attrs["seq"], e.attrs["event_kind"]): e.t
            for e in runner.events.events
            if e.kind == "ingress_enqueued"
        }
        for event in stream_of(runner.config):
            (hold,) = [
                hold
                for meeting, lo, hi, hold in hits
                if event.kind == KIND_SEMB and event.meeting == meeting
                and lo <= event.at_s < hi
            ] or [0.0]
            if hold is None:  # dropped on the wire: never offered
                assert faulted.pop(event.seq) == (
                    DROP_SEMB, None, event.at_s
                )
                assert (event.seq, event.kind) not in offered
            elif hold:  # held, then offered late
                assert faulted.pop(event.seq) == (
                    DELAY_SEMB, hold, event.at_s
                )
                assert offered[event.seq, event.kind] == pytest.approx(
                    event.at_s + hold
                )
            else:
                assert offered[event.seq, event.kind] == event.at_s
        assert faulted == {}
        assert {
            meeting: row["reports_dropped"]
            for meeting, row in report.meetings.items()
            if row["reports_dropped"]
        } == dropped
        assert runner.feedback.dropped_by_meeting == dropped
        assert runner.feedback.delayed == delayed

    @pytest.mark.parametrize(
        "fault, dropped, delayed",
        [(drop(1.0, factor=2), 2, 0), (delay(1.0, factor=1.5), 0, 1)],
        ids=["drop", "delay"],
    )
    def test_dropped_reports_survive_event_log_overflow(
        self, monkeypatch, fault, dropped, delayed
    ):
        # The counts are taken where the report is dropped or held, not
        # re-derived from the events the ring still holds.
        import repro.chaos.runner as runner_module
        from repro.obs.events import EventLog

        monkeypatch.setattr(
            runner_module, "EventLog", lambda: EventLog(capacity=16)
        )
        runner = ChaosRunner(small_config(), FaultSchedule([fault]))
        report = runner.run()
        assert runner.events.dropped > 0
        assert runner.feedback.dropped == dropped
        assert runner.feedback.delayed == delayed
        assert report.meetings["chaos-0"]["reports_dropped"] == dropped

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

    @pytest.mark.parametrize("factor", [1.0, 1.5, 4.0])
    def test_delay_report_defers_but_recovers(self, factor):
        schedule = FaultSchedule().add(
            Fault(1.0, F.DELAY_REPORT, target="chaos-0", factor=factor)
        )
        report = run(schedule)
        assert report.ok
        assert report.faults[0]["outcome"] == "applied"
        assert report.meetings["chaos-0"]["applied_source"] in (
            SOURCE_SOLVE, SOURCE_CACHE,
        )


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

    def test_each_run_registers_one_event_log(self):
        # The registry keeps every source it is given: a log built and
        # then replaced would stay registered beside the run's own.
        with enabled_registry() as reg:
            runner = ChaosRunner(small_config())
            runner.run()
            first = runner.events
            runner.run()
            logs = [
                source.__self__ for source in reg._sources
                if isinstance(getattr(source, "__self__", None), LogStats)
            ]
        assert runner.events is not first
        assert logs == [first.stats, runner.events.stats]


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
