"""Tests for the baseline orchestrators over the real media plane."""

from repro.conference import ClientSpec, MeetingSpec
from repro.conference.runner import MeetingRunner
from repro.core.types import Resolution


def run_short(mode, clients=None, **kwargs):
    spec = MeetingSpec(
        clients=clients
        or [ClientSpec("A", 3000, 3000), ClientSpec("B", 3000, 3000)],
        mode=mode,
        duration_s=kwargs.pop("duration_s", 15.0),
        warmup_s=kwargs.pop("warmup_s", 8.0),
        **kwargs,
    )
    runner = MeetingRunner(spec)
    report = runner.run()
    return runner, report


class TestNonGso:
    def test_publishers_use_coarse_layers_only(self):
        runner, _ = run_short("nongso")
        for client in runner.clients.values():
            for res, kbps in client.encoder.active_encodings.items():
                assert kbps in (1500, 600, 300)  # the template table

    def test_forwarding_installed_locally(self):
        runner, report = run_short("nongso")
        assert runner.node.video_selection("A", "B") is not None

    def test_unwanted_streams_still_pushed(self):
        """The Fig. 3a pathology: with one low-downlink subscriber, the
        publisher keeps sending layers nobody can use."""
        runner, _ = run_short(
            "nongso",
            clients=[
                ClientSpec("pub", 5000, 5000),
                ClientSpec("viewer", 3000, 700),
            ],
            subscriptions=[("viewer", "pub", Resolution.P720)],
        )
        pub = runner.clients["pub"]
        total = pub.encoder.total_target_kbps
        selected = runner.node.video_selection("viewer", "pub")

        # The publisher pushes far more than the one selected stream.
        key = runner.ssrc_alloc.lookup(selected)
        forwarded_kbps = pub.encoder.active_encodings.get(key.kind, 0)
        assert total > forwarded_kbps  # wasted uplink

    def test_gso_stops_unwanted_streams_in_same_scenario(self):
        runner, _ = run_short(
            "gso",
            clients=[
                ClientSpec("pub", 5000, 5000),
                ClientSpec("viewer", 3000, 700),
            ],
            subscriptions=[("viewer", "pub", Resolution.P720)],
        )
        pub = runner.clients["pub"]
        enc = pub.encoder.active_encodings
        # Exactly the streams someone subscribes to (one subscriber -> at
        # most one stream after merge).
        assert len(enc) <= 1


class TestCompetitor1:
    def test_pushes_all_affordable_coarse_layers(self):
        runner, _ = run_short("competitor1")
        for client in runner.clients.values():
            assert client.encoder.active_encodings  # always pushing

    def test_runs_and_reports(self):
        _, report = run_short("competitor1")
        assert report.views


class TestCompetitor2:
    def test_single_stream_per_publisher(self):
        runner, _ = run_short("competitor2")
        for client in runner.clients.values():
            enc = client.encoder.active_encodings
            assert list(enc) == [Resolution.P720]

    def test_slow_downlink_suffers(self):
        """The slow-link problem embodied: one slow receiver gets a stream
        sized for the publisher's uplink, not its own downlink."""
        _, report = run_short(
            "competitor2",
            clients=[
                ClientSpec("pub", 4000, 4000),
                ClientSpec("slow", 3000, 500),
            ],
            subscriptions=[("slow", "pub", Resolution.P720)],
            duration_s=20.0,
            warmup_s=10.0,
        )
        view = report.view("slow", "pub")
        assert view.stall_rate > 0.3  # heavily stalled
