"""Focused tests for the stream-liveness watchdog in the feedback executor."""

from repro.control.conference_node import ConferenceNode
from repro.control.feedback import FeedbackExecutor
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
