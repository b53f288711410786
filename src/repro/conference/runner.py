"""Wires a :class:`MeetingSpec` into a running simulation and reports QoE.

The runner assembles the full three-plane stack:

* **user plane** — one :class:`~repro.client.client.ConferenceClient` per
  participant, publishing simulcast video + audio through a pacer;
* **media plane** — one accessing node switching RTP by SSRC, estimating
  downlinks sender-side, shuttling RTCP;
* **control plane** — in "gso" mode, the conference node + reliable
  feedback executor, decided as one meeting of an
  :class:`~repro.ingress.plane.IngressPlane` on the runner's simulator
  (:class:`~repro.control.gso_controller.ConferenceBackend`); in baseline
  modes, the corresponding uncoordinated orchestrator from
  :mod:`repro.baselines`.

All four schemes share every other component, so measured differences are
attributable to orchestration alone.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..baselines.competitors import (
    Competitor1Orchestrator,
    Competitor2Orchestrator,
)
from ..baselines.nongso import NonGsoOrchestrator
from ..client.client import ClientConfig, ConferenceClient
from ..control.conference_node import ConferenceNode, ConferenceNodeConfig
from ..control.feedback import FeedbackExecutor
from ..control.gso_controller import conference_plane
from ..core.ladder import DEFAULT_BITRATE_RANGES
from ..core.types import ClientId, Resolution
from ..ingress.plane import IngressPlane
from ..media.jitter_buffer import compute_playback_metrics
from ..media.sfu import AccessingNode
from ..net.link import Link
from ..net.simulator import PeriodicTask, Simulator
from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..rtp.rtcp import AppPacket
from ..rtp.semb import SEMB_NAME, SembReport
from ..rtp.ssrc import SsrcAllocator
from ..rtp.tmmbr import GSO_TMMBN_NAME, GsoTmmbn
from ..sdp.simulcast_info import ResolutionCapability, SimulcastInfo
from .builder import ClientSpec, MeetingSpec
from .metrics import MeetingReport, ViewReport, vmaf_proxy

#: How often the runner samples receive rates and pumps downlink estimates.
SAMPLE_INTERVAL_S = 0.5


class MeetingRunner:
    """Builds and runs one meeting."""

    def __init__(self, spec: MeetingSpec) -> None:
        self.spec = spec
        self.sim = Simulator()
        self._rng = random.Random(spec.seed)
        self.ssrc_alloc = SsrcAllocator()
        self.conference = ConferenceNode(
            ConferenceNodeConfig(
                levels_per_resolution=spec.levels_per_resolution
            )
        )
        #: One accessing node per region, fully interconnected.
        self.nodes: Dict[str, AccessingNode] = {}
        for region in spec.regions:
            self.nodes[region] = AccessingNode(
                self.sim, region, on_rtcp_app_upstream=self._on_rtcp_app
            )
        regions = list(self.nodes)
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                link_ab = Link(
                    self.sim,
                    bandwidth_kbps=spec.inter_node_kbps,
                    propagation_ms=spec.inter_node_ms,
                    name=f"{a}->{b}",
                )
                link_ba = Link(
                    self.sim,
                    bandwidth_kbps=spec.inter_node_kbps,
                    propagation_ms=spec.inter_node_ms,
                    name=f"{b}->{a}",
                )
                self.nodes[a].add_peer(self.nodes[b], link_ab)
                self.nodes[b].add_peer(self.nodes[a], link_ba)
        #: The first region's node, kept for single-node callers/tests.
        self.node = self.nodes[regions[0]]
        self.clients: Dict[ClientId, ConferenceClient] = {}
        self.uplinks: Dict[ClientId, Link] = {}
        self.downlinks: Dict[ClientId, Link] = {}
        self.executor: Optional[FeedbackExecutor] = None
        self.plane: Optional[IngressPlane] = None
        self._orchestrator = None
        self._receive_samples: Dict[ClientId, List[Tuple[float, float]]] = {}
        self._last_rx_bytes: Dict[ClientId, int] = {}
        self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        spec = self.spec
        self._desired_subs = spec.resolved_subscriptions()
        self._installed_subs: set = set()
        self._present: set = set()
        for cs in spec.clients:
            if cs.join_at_s <= 0:
                self._admit_client(cs)
            else:
                self.sim.schedule(
                    cs.join_at_s, lambda c=cs: self._admit_client(c)
                )
            if cs.leave_at_s is not None:
                self.sim.schedule(
                    cs.leave_at_s,
                    lambda cid=cs.client_id: self._remove_client(cid),
                )
        subs = self._desired_subs
        if spec.mode == "gso":
            self.executor = FeedbackExecutor(
                self.sim, self.conference, dict(self.nodes)
            )
            self.plane = conference_plane(
                self.sim, self.conference, self.executor
            )
        elif len(spec.regions) > 1:
            raise ValueError(
                "baseline orchestrators are single-node; multi-region "
                "meetings require mode='gso'"
            )
        elif any(
            c.join_at_s > 0 or c.leave_at_s is not None for c in spec.clients
        ):
            raise ValueError(
                "baseline orchestrators assume a static roster; "
                "join/leave churn requires mode='gso'"
            )
        elif spec.mode == "nongso":
            self._orchestrator = NonGsoOrchestrator(
                self.sim, self.node, self.clients, subs, self._ssrc_of
            )
        elif spec.mode == "competitor1":
            self._orchestrator = Competitor1Orchestrator(
                self.sim, self.node, self.clients, subs, self._ssrc_of
            )
        elif spec.mode == "competitor2":
            self._orchestrator = Competitor2Orchestrator(
                self.sim, self.node, self.clients, subs, self._ssrc_of
            )
        for when, speaker in spec.speaker_schedule:
            if spec.mode != "gso":
                raise ValueError("speaker_schedule requires mode='gso'")
            self.sim.schedule(
                when, lambda who=speaker: self.conference.set_speaker(who)
            )
        PeriodicTask(
            self.sim, SAMPLE_INTERVAL_S, self._sample, start_offset=0.4
        )

    def _admit_client(self, cs: ClientSpec) -> None:
        """Join a participant: build its endpoint, links, and signaling,
        then (re)install every subscription whose two parties are present."""
        self._build_client(cs)
        self._present.add(cs.client_id)
        self._sync_subscriptions()

    def _remove_client(self, client_id: ClientId) -> None:
        """A participant leaves: stop media, detach, clean signaling."""
        client = self.clients.get(client_id)
        if client is None:
            return
        client.stop_media()
        self._present.discard(client_id)
        state = self.conference.participant(client_id)
        self.nodes[state.node_name].detach_client(client_id)
        self.conference.leave(client_id)
        self._installed_subs = {
            (sub, pub, cap)
            for (sub, pub, cap) in self._installed_subs
            if sub != client_id and pub != client_id
        }
        # The endpoint object stays in self.clients so its playback record
        # remains available to the final report.

    def _sync_subscriptions(self) -> None:
        for sub, pub, cap in self._desired_subs:
            key = (sub, pub, cap)
            if key in self._installed_subs:
                continue
            if sub in self._present and pub in self._present:
                self.conference.subscribe(sub, pub, cap)
                self._installed_subs.add(key)

    def _build_client(self, cs: ClientSpec) -> None:
        spec = self.spec
        rng = random.Random(self._rng.randrange(2**31))
        uplink = Link(
            self.sim,
            bandwidth_kbps=cs.uplink_kbps,
            propagation_ms=cs.propagation_ms,
            jitter_ms=cs.jitter_ms,
            loss_rate=cs.loss_rate,
            rng=rng,
            name=f"{cs.client_id}:up",
        )
        downlink = Link(
            self.sim,
            bandwidth_kbps=cs.downlink_kbps,
            propagation_ms=cs.propagation_ms,
            jitter_ms=cs.jitter_ms,
            loss_rate=cs.loss_rate,
            rng=rng,
            name=f"{cs.client_id}:down",
        )
        if cs.uplink_trace is not None:
            cs.uplink_trace.apply(self.sim, uplink)
        if cs.downlink_trace is not None:
            cs.downlink_trace.apply(self.sim, downlink)

        video_ssrcs: Dict[Resolution, int] = {}
        caps = []
        if cs.publishes:
            for res in spec.resolutions:
                ssrc = self.ssrc_alloc.allocate(cs.client_id, res)
                video_ssrcs[res] = ssrc
                lo, hi = DEFAULT_BITRATE_RANGES[res]
                caps.append(
                    ResolutionCapability(
                        resolution=res,
                        max_bitrate_kbps=hi,
                        min_bitrate_kbps=lo,
                        ssrc=ssrc,
                    )
                )
        audio_ssrc = self.ssrc_alloc.allocate(cs.client_id, "audio")
        rtcp_ssrc = self.ssrc_alloc.allocate(cs.client_id, "rtcp")

        client = ConferenceClient(
            self.sim,
            cs.client_id,
            uplink=uplink,
            ssrcs=video_ssrcs,
            audio_ssrc=audio_ssrc,
            rtcp_ssrc=rtcp_ssrc,
            config=ClientConfig(
                probing_enabled=(spec.mode == "gso"),
                remb_enabled=(spec.mode == "competitor1"),
                initial_uplink_kbps=min(1000.0, cs.uplink_kbps),
            ),
        )
        home = self.nodes[cs.region]
        uplink.connect(
            lambda packet, now, cid=cs.client_id, node=home: node.on_packet_from_client(
                cid, packet, now
            )
        )
        downlink.connect(client.on_downlink_packet)
        home.attach_client(cs.client_id, downlink)
        if cs.publishes or True:
            # Every participant joins signaling; non-publishers negotiate
            # an empty capability set.
            info = SimulcastInfo(
                client=cs.client_id,
                codec="H264",
                max_streams=max(1, len(caps)),
                resolutions=tuple(caps),
            )
            self.conference.join(info, node_name=cs.region)
        client.start_media()
        self.clients[cs.client_id] = client
        self.uplinks[cs.client_id] = uplink
        self.downlinks[cs.client_id] = downlink
        self._receive_samples[cs.client_id] = []
        self._last_rx_bytes[cs.client_id] = 0

    def _ssrc_of(self, publisher: ClientId, resolution: Resolution) -> Optional[int]:
        return self.ssrc_alloc.ssrc_of(publisher, resolution)

    # ------------------------------------------------------------------ #
    # RTCP APP routing (SEMB up, TMMBN acks)
    # ------------------------------------------------------------------ #

    def _on_rtcp_app(self, client: ClientId, data: bytes) -> None:
        app = AppPacket.parse(data)
        reg = get_registry()
        if app.name == SEMB_NAME:
            if reg.enabled:
                reg.counter(obs_names.RUNNER_RTCP_APP, kind="semb").inc()
            report = SembReport.from_app_packet(app)
            self.conference.on_semb_report(client, report, self.sim.now)
        elif app.name == GSO_TMMBN_NAME and self.executor is not None:
            if reg.enabled:
                reg.counter(obs_names.RUNNER_RTCP_APP, kind="tmmbn").inc()
            self.executor.on_tmmbn(client, GsoTmmbn.from_app_packet(app))
        elif reg.enabled:
            reg.counter(obs_names.RUNNER_RTCP_APP, kind="other").inc()

    # ------------------------------------------------------------------ #
    # Periodic sampling
    # ------------------------------------------------------------------ #

    def _sample(self) -> None:
        # Pump downlink estimates from each home node into the conference.
        for cid in self.clients:
            if cid not in self._present:
                continue
            home = self.nodes[self.conference.participant(cid).node_name]
            self.conference.update_downlink(
                cid, home.downlink_estimate_kbps(cid)
            )
        # Record receive-rate series for the transient plots.
        for cid, client in self.clients.items():
            total = sum(client.received_video_bytes.values())
            delta = total - self._last_rx_bytes[cid]
            self._last_rx_bytes[cid] = total
            kbps = delta * 8.0 / SAMPLE_INTERVAL_S / 1000.0
            self._receive_samples[cid].append((self.sim.now, kbps))

    # ------------------------------------------------------------------ #
    # Run and report
    # ------------------------------------------------------------------ #

    def _presence(self, client_id: ClientId) -> Tuple[float, float]:
        """[join, leave) span of one participant."""
        for cs in self.spec.clients:
            if cs.client_id == client_id:
                leave = (
                    cs.leave_at_s
                    if cs.leave_at_s is not None
                    else self.spec.duration_s
                )
                return cs.join_at_s, leave
        return 0.0, self.spec.duration_s

    def run(self) -> MeetingReport:
        """Run the meeting to completion and compute the report."""
        spec = self.spec
        self.sim.run_until(spec.duration_s)
        report = MeetingReport(duration_s=spec.duration_s)
        window = (spec.warmup_s, spec.duration_s)
        for sub, pub, _cap in spec.resolved_subscriptions():
            # Measure each view only while BOTH parties are present (plus
            # a short span for the stream to start flowing).
            sub_join, sub_leave = self._presence(sub)
            pub_join, pub_leave = self._presence(pub)
            start = max(spec.warmup_s, sub_join + 3.0, pub_join + 3.0)
            end = min(spec.duration_s, sub_leave, pub_leave)
            if end - start < 4.0:
                continue  # too little overlap to measure meaningfully
            report.views.append(self._view_report(sub, pub, (start, end)))
        for cid, client in self.clients.items():
            report.voice_stall[cid] = client.audio_receiver.voice_stall_rate(
                *window
            )
            encoded = client.encoder.stats.bytes_encoded
            report.publisher_send_kbps[cid] = (
                encoded * 8.0 / spec.duration_s / 1000.0
            )
            report.receive_series[cid] = self._receive_samples[cid]
        if self.plane is not None:
            decided = [d.decided_at_s for d in self.plane.decisions]
            report.call_intervals = [b - a for a, b in zip(decided, decided[1:])]
        return report

    def _view_report(
        self, sub: ClientId, pub: ClientId, window: Tuple[float, float]
    ) -> ViewReport:
        client = self.clients[sub]
        pub_ssrcs = [
            ssrc
            for res, ssrc in self.ssrc_alloc.streams_of(pub).items()
            if isinstance(res, Resolution)
        ]
        start, end = window
        render_times: List[float] = []
        window_bytes = 0.0
        top_resolution: Optional[Resolution] = None
        for ssrc in pub_ssrcs:
            buffer = client.jitter_buffers.get(ssrc)
            if buffer is None or not buffer.render_times:
                continue
            in_window = [t for t in buffer.render_times if start <= t <= end]
            render_times.extend(in_window)
            if buffer.render_times:
                window_bytes += buffer.rendered_bytes * (
                    len(in_window) / len(buffer.render_times)
                )
            if in_window:
                key = self.ssrc_alloc.lookup(ssrc)
                if key is not None and (
                    top_resolution is None or key.kind > top_resolution
                ):
                    top_resolution = key.kind
        playback = compute_playback_metrics(
            sorted(render_times),
            start,
            end,
            rendered_bytes=int(window_bytes),
        )
        quality = (
            vmaf_proxy(top_resolution, playback.rendered_kbps)
            if top_resolution is not None
            else 0.0
        )
        return ViewReport(
            subscriber=sub,
            publisher=pub,
            playback=playback,
            top_resolution=top_resolution,
            quality_score=quality,
        )


def run_meeting(spec: MeetingSpec) -> MeetingReport:
    """One-call convenience wrapper."""
    return MeetingRunner(spec).run()
