"""End-to-end meeting harness tests (kept short — benchmarks do long runs)."""

import pytest

from repro.conference import (
    ClientSpec,
    MeetingSpec,
    full_mesh_meeting,
    run_meeting,
    vmaf_proxy,
)
from repro.conference.runner import MeetingRunner
from repro.core.types import Resolution


def short_spec(mode="gso", **kwargs):
    defaults = dict(duration_s=12.0, warmup_s=6.0)
    defaults.update(kwargs)
    return MeetingSpec(
        clients=[
            ClientSpec("A", 3000, 3000),
            ClientSpec("B", 3000, 3000),
        ],
        mode=mode,
        **defaults,
    )


class TestSpecValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            short_spec(mode="magic")

    def test_rejects_duration_below_warmup(self):
        with pytest.raises(ValueError, match="exceed"):
            short_spec(duration_s=3.0, warmup_s=6.0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            MeetingSpec(
                clients=[ClientSpec("A"), ClientSpec("A")],
                duration_s=10,
                warmup_s=1,
            )

    def test_full_mesh_subscriptions(self):
        spec = full_mesh_meeting(3, duration_s=10.0, warmup_s=1.0)
        subs = spec.resolved_subscriptions()
        assert len(subs) == 6

    def test_explicit_subscriptions_respected(self):
        spec = short_spec(
            subscriptions=[("B", "A", Resolution.P360)],
        )
        assert spec.resolved_subscriptions() == [("B", "A", Resolution.P360)]

    def test_non_publisher_excluded_from_mesh(self):
        spec = MeetingSpec(
            clients=[ClientSpec("A"), ClientSpec("B", publishes=False)],
            duration_s=10,
            warmup_s=1,
        )
        subs = spec.resolved_subscriptions()
        assert all(pub == "A" for _, pub, _ in subs)
        assert ("A", "B", Resolution.P720) not in subs


class TestGsoMeeting:
    def test_two_party_meeting_delivers_video(self):
        report = run_meeting(short_spec())
        assert len(report.views) == 2
        for view in report.views:
            assert view.framerate > 20
            assert view.playback.rendered_kbps > 100

    def test_report_structure(self):
        report = run_meeting(short_spec())
        assert set(report.voice_stall) == {"A", "B"}
        assert set(report.publisher_send_kbps) == {"A", "B"}
        assert report.call_intervals  # controller ran
        assert report.receive_series["A"]

    def test_view_lookup(self):
        report = run_meeting(short_spec())
        view = report.view("A", "B")
        assert view.subscriber == "A"
        with pytest.raises(KeyError):
            report.view("A", "ghost")

    def test_determinism(self):
        r1 = run_meeting(short_spec(seed=5))
        r2 = run_meeting(short_spec(seed=5))
        assert r1.mean_framerate() == r2.mean_framerate()
        assert r1.mean_video_stall() == r2.mean_video_stall()

    def test_controller_intervals_within_policy(self):
        report = run_meeting(short_spec())
        for gap in report.call_intervals:
            assert 1.0 - 1e-6 <= gap <= 3.0 + 1e-6

    def test_one_trace_tree_per_decision(self):
        """A figure run and a fleet run share one data model: under an
        event log, each decision of the meeting's plane is one assembled
        cid chain closed by its TMMBR push."""
        from repro.obs.events import TMMBR_PUSH, EventLog, record_events
        from repro.obs.tracing import assemble_trees

        log = EventLog()
        with record_events(log):
            runner = MeetingRunner(short_spec())
            runner.run()
        traces = assemble_trees(log.events)
        chains = [
            node
            for tree in traces.trees()
            for node in tree.walk()
            if any(e.kind == TMMBR_PUSH for e in node.events)
        ]
        assert len(runner.plane.decisions) >= 5
        assert sorted(node.cid for node in chains) == sorted(
            d.cid for d in runner.plane.decisions
        )
        assert traces.stats.orphan_events == 0


class TestBaselineMeetings:
    @pytest.mark.parametrize("mode", ["nongso", "competitor1", "competitor2"])
    def test_baseline_modes_run(self, mode):
        report = run_meeting(short_spec(mode=mode))
        assert report.views
        assert report.mean_framerate() >= 0

    def test_slow_link_gso_beats_nongso_on_quality(self):
        """The headline comparison on a slow-downlink meeting."""
        def spec(mode):
            return MeetingSpec(
                clients=[
                    ClientSpec("fast", 3000, 4000),
                    ClientSpec("slow", 3000, 900),
                ],
                mode=mode,
                duration_s=25.0,
                warmup_s=12.0,
                seed=3,
            )

        gso = run_meeting(spec("gso"))
        nongso = run_meeting(spec("nongso"))
        # GSO must not stall more, and must deliver at least as much QoE.
        assert gso.mean_video_stall() <= nongso.mean_video_stall() + 0.05
        assert gso.mean_quality() >= nongso.mean_quality() - 1.0


class TestVmafProxy:
    def test_monotone_in_bitrate(self):
        assert vmaf_proxy(Resolution.P360, 600) > vmaf_proxy(Resolution.P360, 300)

    def test_zero_bitrate_zero_quality(self):
        assert vmaf_proxy(Resolution.P720, 0) == 0.0

    def test_higher_resolution_higher_ceiling(self):
        assert vmaf_proxy(Resolution.P720, 5000) > vmaf_proxy(
            Resolution.P180, 5000
        )


class TestRegionsAndChurnSpec:
    def test_regions_in_first_appearance_order(self):
        spec = MeetingSpec(
            clients=[
                ClientSpec("a", region="asia"),
                ClientSpec("b", region="eu"),
                ClientSpec("c", region="asia"),
            ],
            duration_s=10,
            warmup_s=2,
        )
        assert spec.regions == ["asia", "eu"]

    def test_join_leave_validation(self):
        with pytest.raises(ValueError, match="join_at_s"):
            MeetingSpec(
                clients=[ClientSpec("a", join_at_s=-1.0)],
                duration_s=10,
                warmup_s=2,
            )
        with pytest.raises(ValueError, match="follow"):
            MeetingSpec(
                clients=[ClientSpec("a", join_at_s=5.0, leave_at_s=4.0)],
                duration_s=10,
                warmup_s=2,
            )

    def test_inter_node_validation(self):
        with pytest.raises(ValueError, match="inter-node"):
            MeetingSpec(
                clients=[ClientSpec("a")],
                duration_s=10,
                warmup_s=2,
                inter_node_kbps=0,
            )

    def test_runner_presence_accounting(self):
        spec = MeetingSpec(
            clients=[
                ClientSpec("a"),
                ClientSpec("b", join_at_s=4.0, leave_at_s=9.0),
            ],
            duration_s=12,
            warmup_s=2,
        )
        runner = MeetingRunner(spec)
        assert runner._presence("a") == (0.0, 12.0)
        assert runner._presence("b") == (4.0, 9.0)
        assert runner._presence("ghost") == (0.0, 12.0)
