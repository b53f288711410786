"""End-to-end determinism + stream chaos of seeded ingress runs.

A seeded run of the plane is a :class:`~repro.chaos.ChaosRunner` run
over the generated stream.  Same seed => byte-identical report digest
*and* event-log digest; dropped/delayed SEMB (``drop_report`` /
``delay_report`` faults, which the runner applies as it delivers the
stream) run with
zero invariant violations; the correlation id minted at enqueue reaches
the ``tmmbr_push`` completion event.
"""

import pytest

from repro.chaos import faults as F
from repro.chaos.faults import Fault, FaultSchedule
from repro.chaos.runner import ChaosConfig, ChaosRunner
from repro.chaos.world import ChaosWorld
from repro.ingress.events import StreamConfig, generate_stream
from repro.obs import events as obs_events

#: Small-but-real sizing shared by the tests (seconds of wall clock).
CFG = ChaosConfig(seed=7, meetings=3, mean_size=4.0, duration_s=6.0)


def run(config=CFG, faults=()) -> ChaosRunner:
    runner = ChaosRunner(config, FaultSchedule(list(faults)))
    runner.run()
    return runner


class TestByteDeterminism:
    def test_double_run_is_byte_identical(self):
        first, second = run().report, run().report
        assert first.digest() == second.digest()
        assert first.event_digest == second.event_digest
        assert first.to_json() == second.to_json()
        assert first.serves
        assert first.ok

    def test_different_seed_diverges(self):
        other = ChaosConfig(seed=8, meetings=3, mean_size=4.0, duration_s=6.0)
        assert run().report.digest() != run(other).report.digest()

    def test_report_counts_are_consistent(self):
        runner = run()
        stats, report = runner.plane.stats, runner.report
        stream = generate_stream(
            CFG.seed,
            ChaosWorld(seed=CFG.seed, meetings=CFG.meetings, mean_size=CFG.mean_size),
            StreamConfig(
                duration_s=CFG.duration_s,
                report_interval_s=CFG.report_interval_s,
                mutations_per_meeting=CFG.mutations_per_meeting,
            ),
        )
        assert stats.offered == len(stream) - runner.feedback.dropped
        assert stats.decisions == len(report.serves)
        assert stats.decisions == sum(report.served_by_source.values())
        assert sum(report.checks.values()) >= stats.decisions


class TestChaosThroughTheStream:
    @pytest.mark.parametrize(
        "target, factor", [("chaos-0", 3), ("chaos-2", 1), ("", 6)]
    )
    def test_dropped_semb_zero_violations(self, target, factor):
        faults = [Fault(1.0, F.DROP_REPORT, target=target, factor=factor)]
        first, second = run(faults=faults), run(faults=faults)
        assert first.feedback.dropped > 0
        assert first.report.ok, first.report.violations
        assert first.report.digest() == second.report.digest()
        assert first.report.event_digest == second.report.event_digest

    @pytest.mark.parametrize(
        "faults",
        [
            [Fault(1.0, F.DELAY_REPORT, target="chaos-1", factor=1.5)],
            [Fault(0.5, F.DELAY_REPORT, target="chaos-0", factor=4)],
            # Summed holds, and a drop overlapping a hold.
            [
                Fault(1.5, F.DELAY_REPORT, target="chaos-2", factor=2),
                Fault(1.5, F.DELAY_REPORT, target="chaos-2", factor=1),
                Fault(2.0, F.DROP_REPORT, target="chaos-2", factor=1),
            ],
        ],
    )
    def test_delayed_semb_zero_violations(self, faults):
        first, second = run(faults=faults), run(faults=faults)
        assert first.feedback.delayed > 0
        assert first.report.ok, first.report.violations
        assert first.report.digest() == second.report.digest()

    def test_fault_set_changes_the_run(self):
        faults = [Fault(0.0, F.DROP_REPORT, target="chaos-0", factor=6)]
        assert run(faults=faults).report.digest() != run().report.digest()

    def test_semb_blackout_degrades_to_time_triggers(self):
        # Sec. 7 posture: after the first reports land, a total SEMB
        # blackout degrades to Fig. 12 ceiling refreshes, not silence.
        cfg = ChaosConfig(
            seed=7, meetings=2, mean_size=4.0, duration_s=8.0,
            mutations_per_meeting=0.0,
        )
        faults = [
            Fault(1.2, F.DROP_REPORT, target=meeting, factor=100)
            for meeting in ("chaos-0", "chaos-1")
        ]
        runner = run(cfg, faults)
        assert runner.feedback.dropped > 0
        time_triggered = [
            d for d in runner.plane.decisions if d.trigger == "time"
        ]
        assert time_triggered, "blackout must fall back to time triggers"
        assert runner.plane.stats.idle_refreshes == len(time_triggered)
        assert runner.report.ok


class TestCidEndToEnd:
    def test_every_tmmbr_push_traces_to_a_mint(self):
        runner = run()
        minted = {
            e.cid
            for e in runner.events.events
            if e.kind in (obs_events.INGRESS_ENQUEUED,
                          obs_events.TIME_TRIGGER)
        }
        pushes = [
            e for e in runner.events.events
            if e.kind == obs_events.TMMBR_PUSH
        ]
        assert pushes
        assert all(p.cid in minted for p in pushes)
        assert len(pushes) == runner.plane.stats.decisions

    def test_solve_served_carries_the_same_cid(self):
        events = run().events.events
        served_cids = {
            e.cid for e in events
            if e.kind == obs_events.SOLVE_SERVED and e.cid
        }
        push_cids = {e.cid for e in events if e.kind == obs_events.TMMBR_PUSH}
        assert served_cids
        assert served_cids <= push_cids

    def test_report_cids_match_the_event_log(self):
        runner = run()
        push_cids = [
            e.cid for e in runner.events.events
            if e.kind == obs_events.TMMBR_PUSH
        ]
        assert [s["cid"] for s in runner.report.serves] == push_cids
