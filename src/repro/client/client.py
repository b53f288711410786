"""The conference client: publisher/subscriber endpoint (user plane).

A :class:`ConferenceClient` is everything that runs on a participant's
device in the reproduction:

* **publish path** — a video source drives the simulcast encoder; encoded
  frames are packetized per stream SSRC and paced onto the uplink; audio
  runs beside video;
* **configuration execution** — GSO TMMBR requests arriving in RTCP APP
  packets reconfigure the encoder (bitrate per resolution, zero = stop) and
  are acknowledged with TMMBN (Sec. 4.3);
* **uplink estimation** — a sender-side GCC estimator fed by TWCC feedback
  from the accessing node, with pacer probe bursts correcting small-stream
  over-estimation (Sec. 7), reported upstream via SEMB under time+event
  triggered rate limiting (Sec. 4.2, Sec. 7);
* **receive path** — per-SSRC jitter buffers produce render times for the
  stall/framerate metrics; the audio receiver tracks voice stalls; TWCC
  arrivals are echoed so the node can estimate the downlink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..cc.gcc import GccConfig, GccEstimator
from ..cc.pacer import Pacer
from ..cc.receiver_estimate import ReceiverEstimator
from ..cc.reporting import ReportScheduler, ReportSchedulerConfig
from ..cc.twcc import TwccReceiver, TwccSender
from ..core.types import ClientId, Resolution
from ..media.audio import AudioReceiver, AudioSender
from ..media.codec import SimulcastEncoder, packetize
from ..media.jitter_buffer import VideoJitterBuffer
from ..media.sfu import is_rtcp
from ..media.source import SourceConfig, VideoSource
from ..net.link import Link
from ..net.packet import Packet, packet_for_bytes
from ..net.simulator import PeriodicTask, Simulator
from ..rtp.nack import GenericNack, NackTracker, RetransmissionCache, is_nack
from ..rtp.packet import AUDIO_PAYLOAD_TYPE, RtpPacket
from ..rtp.rtcp import AppPacket, PT_APP, PT_RTPFB, TwccFeedback, parse_common_header
from ..rtp.remb import RembPacket
from ..rtp.semb import SembReport
from ..rtp.tmmbr import GSO_TMMBR_NAME, GsoTmmbn, GsoTmmbr


@dataclass
class ClientConfig:
    """Per-client behaviour knobs."""

    fps: float = 30.0
    keyframe_interval_s: float = 4.0
    #: Initial uplink estimate for the GCC estimator.
    initial_uplink_kbps: float = 1_000.0
    #: Enable pacer probe bursts (Sec. 7 over-estimation fix).
    probing_enabled: bool = True
    #: SEMB reporting limits.
    report: ReportSchedulerConfig = field(default_factory=ReportSchedulerConfig)
    #: How often the client evaluates probing and reporting.
    estimator_tick_s: float = 0.5
    #: How often TWCC feedback for the downlink is sent.
    twcc_feedback_interval_s: float = 0.1
    #: Enable classic receiver-side estimation + REMB reports (used by the
    #: receiver-driven competitor archetype; GSO relies on sender-side
    #: estimation instead, per Sec. 4.2).
    remb_enabled: bool = False


class ConferenceClient:
    """One participant endpoint.

    Args:
        sim: the event loop.
        client_id: this participant's id.
        uplink: the link from this client toward its accessing node.
        ssrcs: SSRC per video resolution (negotiated via simulcastInfo),
            plus this client's audio and RTCP SSRCs.
        audio_ssrc: SSRC of the client's audio stream.
        rtcp_ssrc: the client's RTCP sender SSRC.
        config: behaviour knobs.
    """

    def __init__(
        self,
        sim: Simulator,
        client_id: ClientId,
        uplink: Link,
        ssrcs: Mapping[Resolution, int],
        audio_ssrc: int,
        rtcp_ssrc: int,
        config: Optional[ClientConfig] = None,
    ) -> None:
        self._sim = sim
        self.client_id = client_id
        self._uplink = uplink
        self.config = config or ClientConfig()
        self._video_ssrcs: Dict[Resolution, int] = dict(ssrcs)
        self._resolution_of_ssrc = {v: k for k, v in self._video_ssrcs.items()}
        self._audio_ssrc = audio_ssrc
        self._rtcp_ssrc = rtcp_ssrc

        # Publish path.
        self.encoder = SimulcastEncoder(
            fps=self.config.fps,
            keyframe_interval_s=self.config.keyframe_interval_s,
        )
        self._seq_per_ssrc: Dict[int, int] = {}
        self._source = VideoSource(
            sim, SourceConfig(fps=self.config.fps), self._on_source_frame
        )
        self._audio = AudioSender(sim, audio_ssrc, self._send_rtp)
        self.uplink_twcc = TwccSender()
        self.uplink_estimator = GccEstimator(
            GccConfig(initial_rate_kbps=self.config.initial_uplink_kbps)
        )
        self.pacer = Pacer(
            sim,
            send=self._transmit_paced,
            target_kbps=self.config.initial_uplink_kbps,
        )
        self._report_scheduler = ReportScheduler(self.config.report)
        self._probe_seq = 0
        #: Send-side retransmission cache (answers NACKs from the node).
        self.rtx_cache = RetransmissionCache()

        # Receive path.
        self.jitter_buffers: Dict[int, VideoJitterBuffer] = {}
        self.audio_receiver = AudioReceiver()
        self.downlink_twcc = TwccReceiver(sender_ssrc=rtcp_ssrc)
        self.received_video_bytes: Dict[int, int] = {}
        #: Receive-side loss repair: NACK the node for downlink holes.
        self.nack_tracker = NackTracker()
        #: Classic receiver-side downlink estimation (REMB mode only).
        self.receiver_estimator = ReceiverEstimator()
        self._remb_counters = (0, 0)  # (packets_seen, holes_seen) snapshot

        # Hooks the harness / control plane can observe.
        self.on_semb_sent: Optional[Callable[[SembReport], None]] = None
        self.applied_configurations: List[Dict[Resolution, int]] = []

        PeriodicTask(
            sim, self.config.estimator_tick_s, self._estimator_tick,
            start_offset=0.25,
        )
        PeriodicTask(
            sim,
            self.config.twcc_feedback_interval_s,
            self._send_downlink_twcc_feedback,
            start_offset=0.05,
        )
        PeriodicTask(sim, 0.02, self._send_due_nacks, start_offset=0.015)
        if self.config.remb_enabled:
            PeriodicTask(sim, 1.0, self._send_remb, start_offset=0.9)

    # ------------------------------------------------------------------ #
    # Publish path
    # ------------------------------------------------------------------ #

    def start_media(self, offset_s: float = 0.0) -> None:
        """Begin producing audio and (if configured) video."""
        self._source.start(offset_s)
        self._audio.start(offset_s)

    def stop_media(self) -> None:
        """Stop producing audio and video."""
        self._source.stop()
        self._audio.stop()

    def _on_source_frame(self, frame_index: int) -> None:
        for frame in self.encoder.encode(frame_index, self._sim.now):
            ssrc = self._video_ssrcs.get(frame.resolution)
            if ssrc is None:
                continue
            seq_start = self._seq_per_ssrc.get(ssrc, 0)
            packets = packetize(frame, ssrc=ssrc, seq_start=seq_start)
            self._seq_per_ssrc[ssrc] = (seq_start + len(packets)) % 2**16
            for rtp in packets:
                self._pace_rtp(rtp)
        # Keep the pacer tracking the encoder's configured total.
        total = self.encoder.total_target_kbps
        if total > 0:
            self.pacer.set_target_kbps(total)

    def _pace_rtp(self, rtp: RtpPacket) -> None:
        """Queue an RTP packet; the TWCC sequence is stamped at drain time
        (the on-wire moment), so pacer queueing is never mistaken for
        network queueing by the delay-based estimator."""
        self.pacer.enqueue(
            Packet(
                payload=rtp,
                size_bytes=rtp.wire_size + 8 + 28,
                src=self.client_id,
                dst="node",
            )
        )

    def _transmit_paced(self, packet: Packet) -> None:
        """Pacer drain hook: stamp TWCC, serialize, put on the wire."""
        rtp: RtpPacket = packet.payload
        if rtp.payload_type not in (AUDIO_PAYLOAD_TYPE, 127):
            self.rtx_cache.store(rtp.with_twcc_seq(None))
        twcc_seq = self.uplink_twcc.register_send(
            packet.size_bytes, self._sim.now
        )
        data = rtp.with_twcc_seq(twcc_seq).serialize()
        self._uplink.send(
            packet_for_bytes(data, src=self.client_id, dst="node")
        )

    def _send_rtp(self, rtp: RtpPacket) -> None:
        """Audio goes out unpaced (tiny, latency-critical) but TWCC-tagged."""
        twcc_seq = self.uplink_twcc.register_send(
            rtp.wire_size + 8 + 28, self._sim.now
        )
        data = rtp.with_twcc_seq(twcc_seq).serialize()
        self._uplink.send(
            packet_for_bytes(data, src=self.client_id, dst="node")
        )

    # ------------------------------------------------------------------ #
    # Configuration execution (TMMBR)
    # ------------------------------------------------------------------ #

    def apply_tmmbr(self, request: GsoTmmbr) -> GsoTmmbn:
        """Reconfigure the encoder per a GSO TMMBR and build the TMMBN."""
        targets = dict(self.encoder.active_encodings)
        for entry in request.entries:
            resolution = self._resolution_of_ssrc.get(entry.ssrc)
            if resolution is None:
                continue  # not one of our streams
            kbps = entry.bitrate_bps // 1000
            if kbps > 0:
                targets[resolution] = kbps
            else:
                targets.pop(resolution, None)
        self.encoder.configure(targets)
        self.applied_configurations.append(dict(targets))
        return GsoTmmbn.acknowledge(request, sender_ssrc=self._rtcp_ssrc)

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def on_downlink_packet(self, packet: Packet, now: float) -> None:
        """Entry point wired to the downlink link's delivery callback."""
        data: bytes = packet.payload
        if is_rtcp(data):
            self._handle_rtcp(data)
            return
        rtp = RtpPacket.parse(data)
        if rtp.twcc_seq is not None:
            self.downlink_twcc.on_packet(rtp.twcc_seq, now)
        if rtp.payload_type == AUDIO_PAYLOAD_TYPE:
            self.audio_receiver.on_packet(rtp, now)
            return
        self.nack_tracker.on_packet(rtp.ssrc, rtp.seq, now)
        if self.config.remb_enabled:
            self.receiver_estimator.on_packet(packet.size_bytes, now)
        buffer = self.jitter_buffers.get(rtp.ssrc)
        if buffer is None:
            buffer = VideoJitterBuffer()
            self.jitter_buffers[rtp.ssrc] = buffer
        buffer.on_packet(rtp, now)
        self.received_video_bytes[rtp.ssrc] = (
            self.received_video_bytes.get(rtp.ssrc, 0) + len(rtp.payload)
        )

    def _handle_rtcp(self, data: bytes) -> None:
        _, packet_type, _ = parse_common_header(data)
        if packet_type == PT_RTPFB and is_nack(data):
            # The node lost some of our uplink packets: retransmit.
            nack = GenericNack.parse(data)
            for seq in nack.seqs:
                cached = self.rtx_cache.lookup(nack.media_ssrc, seq)
                if cached is not None:
                    self._transmit_paced(
                        Packet(
                            payload=cached,
                            size_bytes=cached.wire_size + 8 + 28,
                            src=self.client_id,
                            dst="node",
                        )
                    )
            return
        if packet_type == PT_RTPFB:
            feedback = TwccFeedback.parse(data)
            samples = self.uplink_twcc.on_feedback(feedback)
            self.uplink_estimator.on_feedback(samples)
            total = self.uplink_twcc.lost_reported + self.uplink_twcc.acked_reported
            if total > 0:
                self.uplink_estimator.on_loss_report(
                    self.uplink_twcc.recent_loss_fraction()
                )
            return
        if packet_type == PT_APP:
            app = AppPacket.parse(data)
            if app.name == GSO_TMMBR_NAME:
                notification = self.apply_tmmbr(GsoTmmbr.from_app_packet(app))
                self._uplink.send(
                    packet_for_bytes(
                        notification.to_app_packet().serialize(),
                        src=self.client_id,
                        dst="node",
                    )
                )

    # ------------------------------------------------------------------ #
    # Estimation, probing, reporting
    # ------------------------------------------------------------------ #

    def uplink_estimate_kbps(self) -> float:
        """The sender-side uplink estimate, sanity-capped by send rate.

        A GCC estimate can only be *validated* up to what is actually sent
        (Sec. 7's small-stream over-estimation lesson).  Like WebRTC, the
        raw estimate is capped at a multiple of the current send rate; the
        pacer's probe bursts are what legitimately push the cap upward.
        """
        raw = self.uplink_estimator.estimate_kbps()
        sending = self.encoder.total_target_kbps
        if sending <= 0:
            return raw
        return min(raw, max(3.0 * sending, 600.0))

    def _estimator_tick(self) -> None:
        self._apply_local_send_clamp()
        estimate = self.uplink_estimate_kbps()
        if self.config.probing_enabled:
            sending = self.encoder.total_target_kbps
            # Probe when the estimate has crept well beyond what we send —
            # exactly the small-stream over-estimation situation.
            if sending > 0 and estimate > 1.5 * sending:
                launched = self.pacer.maybe_probe(
                    estimate, self._make_probe_packet
                )
                if launched:
                    # Evaluate the cluster once its feedback is in.
                    self._sim.schedule(0.7, self._evaluate_probe)
        if self._report_scheduler.should_report(self._sim.now, estimate):
            self._send_semb(estimate)

    def _apply_local_send_clamp(self) -> None:
        """Never send above the local uplink estimate (Sec. 7 safety).

        TMMBR configurations are computed from the controller's last known
        global picture; if the uplink has since collapsed (and SEMB reports
        are themselves being lost on the congested link), blindly obeying
        the stale configuration keeps the link wedged.  Like a real WebRTC
        sender, the encoder output is capped at what the local bandwidth
        estimator can currently justify, scaling layer bitrates down
        proportionally (resolutions are kept; the controller will re-plan
        once reports flow again).
        """
        targets = self.encoder.active_encodings
        total = sum(targets.values())
        if total <= 0:
            return
        usable = max(50.0, self.uplink_estimator.estimate_kbps() * 0.9 - 50.0)
        if total <= usable:
            return
        scale = usable / total
        clamped = {
            res: max(30, int(kbps * scale)) for res, kbps in targets.items()
        }
        self.encoder.configure(clamped)

    def _evaluate_probe(self) -> None:
        """Judge the last probe cluster (Sec. 7 over-estimation fix).

        The cluster ran at a multiple of the current estimate; if it left a
        visible delay spike or loss, the delivered rate is the capacity
        ceiling — otherwise the path proved it can carry more.
        """
        est = self.uplink_estimator
        delivered = est.receive_rate_kbps()
        if delivered is None or est.sample_count < 150:
            return  # not enough history to judge against the jitter floor
        # Congestion-specific judgment: a standing queue (jitter-robust
        # windowed minimum), or a p90 delay shift far above the path's
        # typical jitter.  Plain random loss or jitter must NOT cap the
        # estimate — that misjudgment is what Sec. 7's probing fixes.
        spike_floor = max(0.04, 6.0 * est.typical_jitter_s())
        congested = (
            est.queuing_delay_s() > 0.04
            or est.peak_queuing_delay_s() > spike_floor
        )
        est.on_probe_result(delivered, congested)

    def _make_probe_packet(self, k: int) -> Packet:
        """Probe padding rides an RTP packet on the lowest video SSRC.

        TWCC stamping happens in :meth:`_transmit_paced` when the probe is
        actually put on the wire.
        """
        ssrc = min(self._video_ssrcs.values()) if self._video_ssrcs else self._audio_ssrc
        rtp = RtpPacket(
            ssrc=ssrc,
            seq=(50_000 + self._probe_seq) % 2**16,
            timestamp=int(self._sim.now * 90_000) % 2**32,
            payload_type=127,  # padding-only payload type
            payload=bytes(self.pacer.config.probe_packet_bytes),
        )
        self._probe_seq += 1
        return Packet(
            payload=rtp,
            size_bytes=rtp.wire_size + 8 + 28,
            src=self.client_id,
            dst="node",
        )

    def _send_semb(self, estimate_kbps: float) -> None:
        report = SembReport(
            sender_ssrc=self._rtcp_ssrc,
            bitrate_bps=int(estimate_kbps * 1000),
            media_ssrcs=tuple(sorted(self._video_ssrcs.values())),
        )
        self._uplink.send(
            packet_for_bytes(
                report.to_app_packet().serialize(),
                src=self.client_id,
                dst="node",
            )
        )
        if self.on_semb_sent is not None:
            self.on_semb_sent(report)

    def _send_due_nacks(self) -> None:
        """Request retransmission of downlink holes from the node."""
        for ssrc, seqs in self.nack_tracker.due_requests(self._sim.now):
            nack = GenericNack(
                sender_ssrc=self._rtcp_ssrc,
                media_ssrc=ssrc,
                seqs=tuple(seqs),
            )
            self._uplink.send(
                packet_for_bytes(
                    nack.serialize(), src=self.client_id, dst="node"
                )
            )

    def _send_remb(self) -> None:
        """Classic receiver-driven downlink report (REMB mode only)."""
        seen, holes = (
            self.nack_tracker.packets_seen,
            self.nack_tracker.holes_seen,
        )
        prev_seen, prev_holes = self._remb_counters
        self._remb_counters = (seen, holes)
        d_seen = seen - prev_seen
        d_holes = holes - prev_holes
        loss = d_holes / max(1, d_seen + d_holes)
        estimate = self.receiver_estimator.update(loss, self._sim.now)
        packet = RembPacket(
            sender_ssrc=self._rtcp_ssrc, bitrate_bps=int(estimate * 1000)
        )
        self._uplink.send(
            packet_for_bytes(
                packet.serialize(), src=self.client_id, dst="node"
            )
        )

    def _send_downlink_twcc_feedback(self) -> None:
        feedback = self.downlink_twcc.build_feedback()
        if feedback is None:
            return
        self._uplink.send(
            packet_for_bytes(
                feedback.serialize(), src=self.client_id, dst="node"
            )
        )
