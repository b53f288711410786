"""Fuzz tests for the accessing node's forwarding under selection churn."""

import random


from repro.media.sfu import AccessingNode
from repro.net.link import Link
from repro.net.packet import packet_for_bytes
from repro.net.simulator import Simulator
from repro.rtp.packet import AUDIO_PAYLOAD_TYPE, RtpPacket


class TestForwardingChurnFuzz:
    def test_random_selection_churn_is_always_consistent(self):
        """Random interleaving of media, selection changes, attach/detach:
        the node never crashes, never duplicates a packet to one client,
        and only delivers selected SSRCs."""
        rng = random.Random(99)
        sim = Simulator()
        node = AccessingNode(sim, "n0")
        received = {}

        def attach(cid):
            downlink = Link(sim, bandwidth_kbps=50_000, propagation_ms=1)
            received.setdefault(cid, [])
            downlink.connect(
                lambda p, t, c=cid: received[c].append(RtpPacket.parse(p.payload))
            )
            node.attach_client(cid, downlink)

        clients = ["a", "b", "c", "d"]
        for cid in clients:
            attach(cid)
        ssrcs = [0x10, 0x11, 0x20, 0x21]
        owner_of = {0x10: "a", 0x11: "a", 0x20: "b", 0x21: "b"}
        seq = {s: 0 for s in ssrcs}
        selections = {}

        for step in range(400):
            action = rng.random()
            if action < 0.6:
                ssrc = rng.choice(ssrcs)
                rtp = RtpPacket(
                    ssrc=ssrc,
                    seq=seq[ssrc],
                    timestamp=step * 3000,
                    marker=True,
                    payload=bytes(100),
                )
                seq[ssrc] = (seq[ssrc] + 1) % 2**16
                node.on_packet_from_client(
                    owner_of[ssrc],
                    packet_for_bytes(rtp.serialize(), src=owner_of[ssrc]),
                    sim.now,
                )
            elif action < 0.9:
                sub = rng.choice(node.attached_clients or clients)
                pub = rng.choice(["a", "b"])
                choice = rng.choice(
                    [None] + [s for s in ssrcs if owner_of[s] == pub]
                )
                if sub in node.attached_clients:
                    node.set_video_forwarding(sub, pub, choice)
                    selections[(sub, pub)] = choice
            else:
                sub = rng.choice(clients)
                if sub in node.attached_clients and len(node.attached_clients) > 2:
                    node.detach_client(sub)
                    selections = {
                        k: v for k, v in selections.items() if k[0] != sub
                    }
                elif sub not in node.attached_clients:
                    attach(sub)
            sim.run_until(sim.now + 0.01)

        sim.run_until(sim.now + 1.0)
        # No client ever received an unselected-at-some-point SSRC is hard
        # to assert exactly (selections changed over time); instead assert
        # structural sanity: all deliveries parse, and per (client, ssrc,
        # seq) there are no duplicates.
        for cid, packets in received.items():
            seen = set()
            for p in packets:
                key = (p.ssrc, p.seq, p.timestamp)
                assert key not in seen, f"duplicate delivery to {cid}: {key}"
                seen.add(key)

    def test_audio_never_loops_back(self):
        sim = Simulator()
        node = AccessingNode(sim, "n0")
        got = {"x": [], "y": []}
        for cid in ("x", "y"):
            downlink = Link(sim, bandwidth_kbps=50_000, propagation_ms=1)
            downlink.connect(
                lambda p, t, c=cid: got[c].append(RtpPacket.parse(p.payload))
            )
            node.attach_client(cid, downlink)
        for k in range(50):
            rtp = RtpPacket(
                ssrc=5,
                seq=k,
                timestamp=k * 960,
                payload_type=AUDIO_PAYLOAD_TYPE,
                payload=bytes(80),
            )
            node.on_packet_from_client(
                "x", packet_for_bytes(rtp.serialize(), src="x"), sim.now
            )
            sim.run_until(sim.now + 0.02)
        sim.run_until(sim.now + 1.0)
        assert len(got["y"]) == 50
        assert got["x"] == []
