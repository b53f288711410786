"""Tests for the accessing node's forwarding, relay, and RTCP handling."""

import pytest

from repro.media.sfu import AccessingNode, is_rtcp
from repro.net.link import Link
from repro.net.packet import packet_for_bytes
from repro.net.simulator import Simulator
from repro.rtp.packet import AUDIO_PAYLOAD_TYPE, RtpPacket
from repro.rtp.rtcp import AppPacket, ReceiverReport


def video_packet(ssrc, seq=0, twcc=None):
    return RtpPacket(
        ssrc=ssrc, seq=seq, timestamp=100, payload=bytes(500), twcc_seq=twcc
    )


def audio_packet(ssrc):
    return RtpPacket(
        ssrc=ssrc,
        seq=0,
        timestamp=0,
        payload_type=AUDIO_PAYLOAD_TYPE,
        payload=bytes(80),
    )


class Harness:
    def __init__(self, clients=("A", "B", "C")):
        self.sim = Simulator()
        self.apps = []
        self.node = AccessingNode(
            self.sim, "n0", on_rtcp_app_upstream=lambda c, d: self.apps.append((c, d))
        )
        self.received = {c: [] for c in clients}
        for c in clients:
            downlink = Link(self.sim, bandwidth_kbps=10_000, propagation_ms=1)
            downlink.connect(
                lambda packet, now, cid=c: self.received[cid].append(packet)
            )
            self.node.attach_client(c, downlink)

    def inject(self, from_client, rtp):
        self.node.on_packet_from_client(
            from_client,
            packet_for_bytes(rtp.serialize(), src=from_client),
            self.sim.now,
        )

    def video_delivered(self, client):
        out = []
        for packet in self.received[client]:
            if not is_rtcp(packet.payload):
                rtp = RtpPacket.parse(packet.payload)
                if rtp.payload_type != AUDIO_PAYLOAD_TYPE:
                    out.append(rtp)
        return out


class TestDemux:
    def test_is_rtcp(self):
        assert is_rtcp(ReceiverReport(sender_ssrc=1).serialize())
        assert not is_rtcp(video_packet(1).serialize())


class TestVideoForwarding:
    def test_forwards_only_selected_ssrc(self):
        h = Harness()
        h.node.set_video_forwarding("B", "A", 0x10)
        h.inject("A", video_packet(0x10))
        h.inject("A", video_packet(0x11))
        h.sim.run_until(1.0)
        delivered = h.video_delivered("B")
        assert len(delivered) == 1
        assert delivered[0].ssrc == 0x10

    def test_no_selection_no_forwarding(self):
        h = Harness()
        h.inject("A", video_packet(0x10))
        h.sim.run_until(1.0)
        assert h.video_delivered("B") == []
        assert h.video_delivered("C") == []

    def test_selection_cleared_with_none(self):
        h = Harness()
        h.node.set_video_forwarding("B", "A", 0x10)
        h.node.set_video_forwarding("B", "A", None)
        h.inject("A", video_packet(0x10))
        h.sim.run_until(1.0)
        assert h.video_delivered("B") == []
        assert h.node.video_selection("B", "A") is None

    def test_multiple_subscribers_each_get_copy(self):
        h = Harness()
        h.node.set_video_forwarding("B", "A", 0x10)
        h.node.set_video_forwarding("C", "A", 0x10)
        h.inject("A", video_packet(0x10))
        h.sim.run_until(1.0)
        assert len(h.video_delivered("B")) == 1
        assert len(h.video_delivered("C")) == 1

    def test_twcc_rewritten_per_downlink(self):
        h = Harness()
        h.node.set_video_forwarding("B", "A", 0x10)
        h.inject("A", video_packet(0x10, seq=0, twcc=500))
        h.inject("A", video_packet(0x10, seq=1, twcc=501))
        h.sim.run_until(1.0)
        seqs = [p.twcc_seq for p in h.video_delivered("B")]
        assert seqs == [0, 1]  # node's own numbering, not the client's

    def test_padding_probes_terminate_at_node(self):
        h = Harness()
        h.node.set_video_forwarding("B", "A", 0x10)
        probe = RtpPacket(
            ssrc=0x10, seq=5, timestamp=0, payload_type=127, payload=bytes(500)
        )
        h.inject("A", probe)
        h.sim.run_until(1.0)
        assert h.video_delivered("B") == []

    def test_unattached_subscriber_rejected(self):
        h = Harness()
        with pytest.raises(ValueError, match="not attached"):
            h.node.set_video_forwarding("ghost", "A", 0x10)


class TestAudioFanout:
    def test_audio_reaches_everyone_but_sender(self):
        h = Harness()
        h.inject("A", audio_packet(0x20))
        h.sim.run_until(1.0)
        def audio_count(c):
            return sum(
                1
                for packet in h.received[c]
                if not is_rtcp(packet.payload)
                and RtpPacket.parse(packet.payload).payload_type
                == AUDIO_PAYLOAD_TYPE
            )
        assert audio_count("B") == 1
        assert audio_count("C") == 1
        assert audio_count("A") == 0


class TestRelay:
    def test_remote_subscriber_via_peer_node(self):
        sim = Simulator()
        node_a = AccessingNode(sim, "na")
        node_b = AccessingNode(sim, "nb")
        inter_ab = Link(sim, bandwidth_kbps=100_000, propagation_ms=10)
        node_a.add_peer(node_b, inter_ab)

        received = []
        downlink = Link(sim, bandwidth_kbps=10_000, propagation_ms=1)
        downlink.connect(lambda p, t: received.append(p))
        node_b.attach_client("remote", downlink)
        node_a.register_remote_client("remote", "nb")

        # Audio fans out to remote clients through the relay.
        node_a.on_packet_from_client(
            "local",
            packet_for_bytes(audio_packet(0x20).serialize(), src="local"),
            sim.now,
        )
        sim.run_until(1.0)
        assert len(received) == 1

    def test_unknown_peer_rejected(self):
        sim = Simulator()
        node = AccessingNode(sim, "na")
        with pytest.raises(ValueError, match="unknown peer"):
            node.register_remote_client("x", "ghost-node")


class TestRtcpPaths:
    def test_app_packets_bubble_to_control_plane(self):
        h = Harness()
        app = AppPacket(subtype=0, ssrc=1, name=b"SEMB", data=b"\x00" * 4)
        h.node.on_packet_from_client(
            "A", packet_for_bytes(app.serialize(), src="A"), h.sim.now
        )
        assert len(h.apps) == 1
        assert h.apps[0][0] == "A"

    def test_downlink_estimation_from_twcc_loop(self):
        """Forwarded traffic + client TWCC feedback move the node's
        downlink estimate."""
        h = Harness()
        h.node.set_video_forwarding("B", "A", 0x10)
        from repro.cc.twcc import TwccReceiver

        receiver = TwccReceiver(sender_ssrc=2)
        # Pump packets and echo feedback like a client would.
        for k in range(100):
            h.inject("A", video_packet(0x10, seq=k))
        h.sim.run_until(2.0)
        for packet in h.received["B"]:
            if not is_rtcp(packet.payload):
                rtp = RtpPacket.parse(packet.payload)
                if rtp.twcc_seq is not None:
                    receiver.on_packet(rtp.twcc_seq, packet.sent_at + 0.01)
        feedback = receiver.build_feedback()
        assert feedback is not None
        h.node.on_packet_from_client(
            "B", packet_for_bytes(feedback.serialize(), src="B"), h.sim.now
        )
        assert h.node.downlink_estimate_kbps("B") > 0

    def test_detach_client(self):
        h = Harness()
        h.node.set_video_forwarding("B", "A", 0x10)
        h.node.detach_client("B")
        assert "B" not in h.node.attached_clients
        h.inject("A", video_packet(0x10))  # must not raise
