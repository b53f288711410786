"""Tests for the GSO controller (a conference decided on the ingress
plane) and the feedback executor, exercised over a real (simulated)
media plane."""

import pytest

from repro.control.conference_node import ConferenceNode
from repro.control.feedback import FeedbackExecutor
from repro.control.gso_controller import conference_plane
from repro.core.types import Resolution
from repro.media.sfu import AccessingNode
from repro.net.link import Link
from repro.net.simulator import Simulator
from repro.rtp.rtcp import AppPacket
from repro.rtp.semb import SembReport
from repro.rtp.tmmbr import GSO_TMMBR_NAME, GsoTmmbn, GsoTmmbr
from repro.sdp.simulcast_info import ResolutionCapability, SimulcastInfo


def info_for(client, base):
    return SimulcastInfo(
        client=client,
        codec="H264",
        max_streams=3,
        resolutions=(
            ResolutionCapability(Resolution.P720, 1500, 900, base),
            ResolutionCapability(Resolution.P360, 800, 400, base + 1),
            ResolutionCapability(Resolution.P180, 300, 100, base + 2),
        ),
    )


def call_intervals(plane):
    decided = [d.decided_at_s for d in plane.decisions]
    return [b - a for a, b in zip(decided, decided[1:])]


class Harness:
    """Control plane + accessing node with scripted 'clients' that record
    the TMMBR they receive and ack on request."""

    def __init__(self):
        self.sim = Simulator()
        self.conference = ConferenceNode()
        self.node = AccessingNode(self.sim, "n0")
        self.received = {}  # client -> list of GsoTmmbr
        self.executor = FeedbackExecutor(
            self.sim, self.conference, {"n0": self.node}
        )
        self.plane = conference_plane(self.sim, self.conference, self.executor)

    def add_client(self, name, base_ssrc):
        downlink = Link(self.sim, bandwidth_kbps=10_000, propagation_ms=5)
        self.received[name] = []

        def deliver(packet, now, client=name):
            app = AppPacket.parse(packet.payload)
            if app.name == GSO_TMMBR_NAME:
                self.received[client].append(GsoTmmbr.from_app_packet(app))

        downlink.connect(deliver)
        self.node.attach_client(name, downlink)
        self.conference.join(info_for(name, base_ssrc), "n0")

    def ack_all(self):
        for client, requests in self.received.items():
            for request in requests:
                self.executor.on_tmmbn(
                    client, GsoTmmbn.acknowledge(request, sender_ssrc=1)
                )


class TestControllerTriggers:
    """The Fig. 12 envelope of a conference decided on the ingress plane."""

    def build(self):
        h = Harness()
        h.add_client("A", 0x100)
        h.add_client("B", 0x200)
        h.conference.subscribe("B", "A")
        return h

    def test_first_solve_happens_at_min_interval(self):
        h = self.build()
        h.sim.run_until(1.1)
        assert [d.decided_at_s for d in h.plane.decisions] == [1.0]
        assert h.plane.decisions[0].source == "solve"

    def test_max_interval_time_trigger(self):
        h = self.build()
        h.sim.run_until(1.1)
        base_version = h.conference.version
        h.sim.run_until(10.0)
        # No events after the first solve: solves every max_interval.
        assert h.conference.version == base_version
        later = h.plane.decisions[1:]
        assert [d.trigger for d in later] == ["time"] * 3
        intervals = call_intervals(h.plane)
        assert intervals and all(i == pytest.approx(3.0) for i in intervals)

    def test_event_trigger_pulls_solve_earlier(self):
        h = self.build()
        h.sim.run_until(1.1)
        # A significant change right after the solve is decided 1 s
        # after it, long before the 3 s ceiling.
        h.conference.update_downlink("B", 5000)
        h.sim.run_until(2.5)
        last = h.plane.decisions[-1]
        assert last.trigger == "event"
        assert last.opened_at_s == pytest.approx(1.1)
        assert last.decided_at_s == pytest.approx(2.1)
        assert call_intervals(h.plane) == [pytest.approx(1.1)]

    def test_intervals_respect_min_and_max(self):
        h = self.build()
        # Constant churn.
        import itertools

        from repro.net.simulator import PeriodicTask

        values = itertools.cycle([1000, 2000, 800, 4000, 600, 3000])
        PeriodicTask(
            h.sim, 0.2, lambda: h.conference.update_downlink("B", next(values))
        )
        h.sim.run_until(20.0)
        assert call_intervals(h.plane)
        for gap in call_intervals(h.plane):
            assert 1.0 - 1e-6 <= gap <= 3.0 + 1e-6

    def test_fast_changes_never_shed(self):
        """60 significant changes a second for 10 s: the conference's
        mailbox holds one change at most, every window is the 1 s floor,
        and nothing is shed to the fallback."""
        h = self.build()
        from repro.net.simulator import PeriodicTask

        values = iter([1000, 4000] * 300)
        PeriodicTask(
            h.sim,
            1 / 60,
            lambda: h.conference.update_downlink("B", next(values, 1000)),
        )
        version = h.conference.version
        h.sim.run_until(10.0)
        assert h.conference.version - version >= 500
        stats = h.plane.stats
        assert stats.shed == 0
        assert stats.max_mailbox_depth == 1
        assert {d.source for d in h.plane.decisions} == {"solve"}
        assert all(d.trigger == "event" for d in h.plane.decisions)
        for d in h.plane.decisions:
            assert d.latency_s == pytest.approx(1.0)


class TestFeedbackExecution:
    def build(self):
        h = Harness()
        h.add_client("A", 0x100)
        h.add_client("B", 0x200)
        h.conference.subscribe("B", "A", Resolution.P720)
        h.conference.on_semb_report("A", SembReport(1, 5_000_000), 0.0)
        h.conference.update_downlink("B", 3000)
        return h

    def test_tmmbr_reaches_publisher(self):
        h = self.build()
        h.sim.run_until(1.5)
        assert len(h.received["A"]) >= 1
        request = h.received["A"][0]
        configured = {e.ssrc: e.bitrate_bps for e in request.entries}
        # All three negotiated SSRCs are addressed; unused ones get zero.
        assert set(configured) == {0x100, 0x101, 0x102}
        assert any(bps > 0 for bps in configured.values())

    def test_unchanged_solution_sends_no_new_tmmbr(self):
        h = self.build()
        # Keep SEMB reports fresh (clients report every second; a silent
        # publisher would trip the stale-report fallback by design).
        from repro.net.simulator import PeriodicTask

        PeriodicTask(
            h.sim,
            1.0,
            lambda: h.conference.on_semb_report(
                "A", SembReport(1, 5_000_000), h.sim.now
            ),
        )
        h.sim.run_until(1.5)
        h.ack_all()
        sent_before = h.executor.stats.tmmbr_sent
        h.sim.run_until(8.0)
        h.ack_all()
        # Inputs unchanged: config diffing suppresses repeat TMMBR.
        assert h.executor.stats.tmmbr_sent == sent_before

    def test_stale_semb_reports_trigger_conservative_fallback(self):
        """A publisher whose SEMB reports stop (congested uplink) is
        re-planned onto a conservative uplink budget (Sec. 7)."""
        h = self.build()  # single report at t=0 only
        h.sim.run_until(8.0)
        problem = h.conference.snapshot(now_s=h.sim.now)
        assert problem.bandwidth["A"].uplink_kbps <= 300

    def test_unacked_tmmbr_is_retransmitted(self):
        h = self.build()
        h.sim.run_until(1.2)
        first = len(h.received["A"])
        h.sim.run_until(2.4)  # several retransmit intervals, no acks
        assert len(h.received["A"]) > first

    def test_acked_tmmbr_stops_retransmitting(self):
        h = self.build()
        h.sim.run_until(1.2)
        h.ack_all()
        count = len(h.received["A"])
        h.sim.run_until(2.4)
        assert len(h.received["A"]) == count
        assert h.executor.pending_acks == 0

    def test_forwarding_installed_for_subscriber(self):
        h = self.build()
        h.sim.run_until(1.5)
        selection = h.node.video_selection("B", "A")
        assert selection in (0x100, 0x101, 0x102)

    def test_stopped_publisher_gets_zero_entries(self):
        h = self.build()
        h.sim.run_until(1.5)
        h.ack_all()
        # B unsubscribes: A should be told to stop everything.
        h.conference.unsubscribe("B", "A")
        h.sim.run_until(4.6)
        last = h.received["A"][-1]
        assert all(e.disables_stream for e in last.entries)
        assert h.node.video_selection("B", "A") is None
