"""Focused tests for the stream-liveness watchdog in the feedback executor,
and for the dead-stream caps the conference backend builds from it."""

from repro.control.conference_node import ConferenceNode
from repro.control.feedback import FeedbackExecutor
from repro.control.gso_controller import (
    DEAD_STREAM_PENALTY_S,
    MEETING_ID,
    ConferenceBackend,
)
from repro.core.types import Resolution
from repro.media.sfu import AccessingNode
from repro.net.link import Link
from repro.net.packet import packet_for_bytes
from repro.net.simulator import Simulator
from repro.rtp.packet import AUDIO_PAYLOAD_TYPE, RtpPacket
from repro.sdp.simulcast_info import ResolutionCapability, SimulcastInfo


def build():
    sim = Simulator()
    conference = ConferenceNode()
    node = AccessingNode(sim, "n0")
    downlink = Link(sim, bandwidth_kbps=10_000, propagation_ms=1)
    downlink.connect(lambda p, t: None)
    node.attach_client("pub", downlink)
    conference.join(
        SimulcastInfo(
            client="pub",
            codec="H264",
            max_streams=2,
            resolutions=(
                ResolutionCapability(Resolution.P720, 1500, 900, 0x70),
                ResolutionCapability(Resolution.P180, 300, 100, 0x18),
            ),
        ),
        "n0",
    )
    executor = FeedbackExecutor(sim, conference, {"n0": node})
    return sim, conference, node, executor


def ingest_video(node, sim, ssrc, seq):
    rtp = RtpPacket(
        ssrc=ssrc, seq=seq, timestamp=seq * 3000, marker=True, payload=bytes(50)
    )
    node.on_packet_from_client(
        "pub", packet_for_bytes(rtp.serialize(), src="pub"), sim.now
    )


def ingest_audio(node, sim, seq):
    rtp = RtpPacket(
        ssrc=0xA0,
        seq=seq,
        timestamp=seq * 960,
        payload_type=AUDIO_PAYLOAD_TYPE,
        payload=bytes(40),
    )
    node.on_packet_from_client(
        "pub", packet_for_bytes(rtp.serialize(), src="pub"), sim.now
    )


def install_config(executor, config):
    """Simulate an executed configuration for 'pub'."""
    executor._last_config["pub"] = config
    executor._config_installed_s["pub"] = executor._sim.now
    for res, kbps in config.items():
        if kbps > 0:
            executor._expected_since[("pub", res)] = executor._sim.now


class TestDeadStreamDetection:
    def test_flowing_streams_are_not_dead(self):
        sim, conference, node, executor = build()
        install_config(executor, {Resolution.P720: 1200, Resolution.P180: 200})
        for k in range(40):
            ingest_video(node, sim, 0x70, k)
            ingest_video(node, sim, 0x18, k)
            sim.run_until(sim.now + 0.05)
        assert executor.dead_configured_streams(sim.now) == []

    def test_silent_stream_with_live_sibling_is_dead(self):
        sim, conference, node, executor = build()
        install_config(executor, {Resolution.P720: 1200, Resolution.P180: 200})
        for k in range(40):
            ingest_video(node, sim, 0x18, k)  # only the 180p flows
            sim.run_until(sim.now + 0.05)
        dead = executor.dead_configured_streams(sim.now)
        assert dead == [("pub", Resolution.P720)]

    def test_silent_stream_with_live_audio_is_dead(self):
        sim, conference, node, executor = build()
        install_config(executor, {Resolution.P720: 1200})
        for k in range(40):
            ingest_audio(node, sim, k)
            sim.run_until(sim.now + 0.05)
        dead = executor.dead_configured_streams(sim.now)
        assert dead == [("pub", Resolution.P720)]

    def test_total_silence_is_an_outage_not_a_stream_failure(self):
        sim, conference, node, executor = build()
        install_config(executor, {Resolution.P720: 1200})
        sim.run_until(5.0)
        assert executor.dead_configured_streams(sim.now) == []

    def test_grace_period_respected(self):
        sim, conference, node, executor = build()
        sim.run_until(1.0)
        install_config(executor, {Resolution.P720: 1200})
        ingest_audio(node, sim, 0)
        # Immediately after installation nothing is dead yet.
        assert executor.dead_configured_streams(sim.now) == []

    def test_departed_publisher_ignored(self):
        sim, conference, node, executor = build()
        install_config(executor, {Resolution.P720: 1200})
        for k in range(40):
            ingest_audio(node, sim, k)
            sim.run_until(sim.now + 0.05)
        conference.leave("pub")
        assert executor.dead_configured_streams(sim.now) == []


def build_with_viewer():
    """``build()`` plus a viewer on the same node subscribing to ``pub``
    at 720p, and the conference's backend."""
    sim, conference, node, executor = build()
    downlink = Link(sim, bandwidth_kbps=10_000, propagation_ms=1)
    downlink.connect(lambda p, t: None)
    node.attach_client("viewer", downlink)
    conference.join(
        SimulcastInfo(
            client="viewer",
            codec="H264",
            max_streams=1,
            resolutions=(
                ResolutionCapability(Resolution.P180, 300, 100, 0x28),
            ),
        ),
        "n0",
    )
    conference.subscribe("viewer", "pub", Resolution.P720)
    backend = ConferenceBackend(sim, conference, executor)
    install_config(executor, {Resolution.P720: 1200, Resolution.P180: 200})
    return sim, node, backend


def feed(node, sim, until_s, ssrcs, start_seq=0):
    """Ingest one packet per 50 ms on each of ``ssrcs`` until ``until_s``."""
    k = start_seq
    while sim.now < until_s:
        for ssrc in ssrcs:
            ingest_video(node, sim, ssrc, k)
        k += 1
        sim.run_until(sim.now + 0.05)
    return k


def pub_resolutions(problem):
    return {s.resolution for s in problem.feasible_streams["pub"]}


class TestDeadStreamCaps:
    """``ConferenceBackend`` turns the detector's answer into the Sec. 7
    downgrade: the dead stream leaves the publisher's feasible set."""

    def test_healthy_streams_keep_the_full_ladder(self):
        sim, node, backend = build_with_viewer()
        feed(node, sim, 2.0, (0x70, 0x18))
        problem = backend.payload(MEETING_ID)
        assert Resolution.P720 in pub_resolutions(problem)
        assert backend.guards.downgrades == 0

    def test_dead_stream_is_left_out_of_the_payload(self):
        sim, node, backend = build_with_viewer()
        feed(node, sim, 2.0, (0x18,))
        problem = backend.payload(MEETING_ID)
        assert pub_resolutions(problem) == {Resolution.P180}
        assert backend.guards.downgrades == 1

    def test_a_standing_cap_counts_one_downgrade(self):
        sim, node, backend = build_with_viewer()
        k = feed(node, sim, 2.0, (0x18,))
        backend.payload(MEETING_ID)
        feed(node, sim, 4.0, (0x18,), start_seq=k)
        assert pub_resolutions(backend.payload(MEETING_ID)) == {
            Resolution.P180
        }
        assert backend.guards.downgrades == 1

    def test_cap_expires_after_the_penalty(self):
        sim, node, backend = build_with_viewer()
        k = feed(node, sim, 2.0, (0x18,))
        backend.payload(MEETING_ID)
        capped_at = sim.now
        # The 720p stream recovers; the cap stands out its penalty anyway.
        k = feed(
            node, sim, capped_at + DEAD_STREAM_PENALTY_S - 1.0, (0x70, 0x18),
            start_seq=k,
        )
        assert Resolution.P720 not in pub_resolutions(
            backend.payload(MEETING_ID)
        )
        feed(
            node, sim, capped_at + DEAD_STREAM_PENALTY_S + 0.5, (0x70, 0x18),
            start_seq=k,
        )
        assert Resolution.P720 in pub_resolutions(backend.payload(MEETING_ID))
        assert backend.guards.downgrades == 1

    def test_subscriber_falls_to_the_next_live_rung(self):
        sim, node, backend = build_with_viewer()
        feed(node, sim, 2.0, (0x18,))
        problem = backend.payload(MEETING_ID)
        decision = backend.decide(
            MEETING_ID, problem, sim.now, "event", "meeting#1"
        )
        assert decision.source == "solve"
        assert (
            decision.solution.assignments["viewer"]["pub"].resolution
            == Resolution.P180
        )
