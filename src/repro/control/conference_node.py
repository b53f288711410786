"""The conference node: signaling endpoint and global-picture collection.

Sec. 3: the conference node "(1) handles the signaling with clients and
accessing nodes, and (2) captures the global picture of a conference,
which is used as inputs to the GSO controller."  The global picture is
three things (Sec. 4.2):

* **subscription information** — passed by participants over signaling;
* **codec capability information** — from SDP negotiation + simulcastInfo;
* **bandwidth information** — uplinks from client SEMB reports (in-band
  RTCP APP), downlinks read directly off the accessing nodes' sender-side
  estimators.

The node turns all of it into a :class:`~repro.core.constraints.Problem`
snapshot on demand, applying audio-protection headroom (Sec. 7) and the
upgrade-hysteresis damper (Sec. 7) at the measurement boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.constraints import Bandwidth, Problem, Subscription
from ..core.hysteresis import UpgradeDamper
from ..core.priority import PriorityPolicy
from ..core.types import ClientId, Resolution, StreamSpec
from ..core.virtual import screen_id, virtual_id
from ..rtp.semb import SembReport
from ..sdp.sdp import SessionDescription
from ..sdp.simulcast_info import (
    SimulcastInfo,
    build_answer,
    capability_from_info,
)


@dataclass
class ParticipantState:
    """Everything the conference node knows about one participant."""

    client: ClientId
    node_name: str
    feasible_streams: List[StreamSpec]
    ssrc_by_resolution: Dict[Resolution, int]
    uplink_kbps: Optional[int] = None
    downlink_kbps: Optional[int] = None
    last_uplink_report_s: float = -1.0


@dataclass
class ConferenceNodeConfig:
    """Snapshot-construction knobs."""

    #: Bandwidth assumed for directions not yet measured.
    default_bandwidth_kbps: int = 1_000
    #: Audio protection headroom subtracted per direction (Sec. 7), per
    #: audible remote participant (audio mixes are capped at a few
    #: concurrent speakers).
    audio_protection_kbps: int = 50
    #: At most this many concurrent audio streams are protected for.
    audio_mix_cap: int = 5
    #: Bitrate rungs per resolution synthesized from codec capability.
    levels_per_resolution: int = 5
    #: Hysteresis margin for upgrade damping (Sec. 7).
    upgrade_margin: float = 0.15
    #: Relative bandwidth change that counts as a control *event* (smaller
    #: changes are stored for the next decision but do not trigger
    #: one early) — keeps the Fig. 12 call-interval distribution sane.
    significant_change: float = 0.15
    #: Snapshot budgets are floored to this grid so estimator wiggle does
    #: not flip the solver's assignments (and thus encoder configs) every
    #: control period — the stability half of the Sec. 7 oscillation fix.
    bandwidth_quantum_kbps: int = 50
    #: Fraction of the measured bandwidth handed to the solver; the rest
    #: absorbs RTP/IP framing, RTCP, and pacing burstiness.
    headroom_fraction: float = 0.93
    #: Clients report SEMB at least every second; a report older than this
    #: means reports are being *lost* (typically on a congested uplink) and
    #: the stored estimate cannot be trusted.
    uplink_report_stale_s: float = 3.0
    #: Conservative uplink assumed for a publisher with stale reports.
    stale_uplink_fallback_kbps: int = 300


def _offered_ssrc(value: str) -> int:
    """The SSRC heading one ``a=ssrc:`` value of an offer.

    Raises:
        ValueError: the value is empty, not an integer, or not 32-bit.
    """
    fields = value.split()
    ssrc = int(fields[0]) if fields else -1
    if not 0 <= ssrc < 2**32:
        raise ValueError(f"a=ssrc:{value} does not name a 32-bit SSRC")
    return ssrc


class ConferenceNode:
    """Signaling + global-picture state for one meeting."""

    def __init__(self, config: Optional[ConferenceNodeConfig] = None) -> None:
        self.config = config or ConferenceNodeConfig()
        self._participants: Dict[ClientId, ParticipantState] = {}
        #: (subscriber, publisher) -> edge, in first-subscription order.
        self._subscriptions: Dict[Tuple[ClientId, ClientId], Subscription] = {}
        self._aliases: Dict[ClientId, ClientId] = {}
        self._owners: Dict[ClientId, ClientId] = {}
        self._damper = UpgradeDamper(upgrade_margin=self.config.upgrade_margin)
        self.priority = PriorityPolicy()
        #: Monotone counter bumped on every state change.
        self.version = 0
        #: Called after every bump of :attr:`version`
        #: (:func:`repro.control.gso_controller.conference_plane` offers
        #: the change to an ingress plane).
        self.on_change: Optional[Callable[[], None]] = None

    def _changed(self) -> None:
        self.version += 1
        if self.on_change is not None:
            self.on_change()

    # ------------------------------------------------------------------ #
    # Signaling
    # ------------------------------------------------------------------ #

    def join(
        self, info: SimulcastInfo, node_name: str
    ) -> ParticipantState:
        """Admit a participant; negotiates its feasible stream set.

        Args:
            info: the client's simulcastInfo (codec capability message).
            node_name: the accessing node the client is homed on.

        Returns:
            The registered participant state.
        """
        if info.client in self._participants:
            raise ValueError(f"client {info.client!r} already joined")
        feasible = capability_from_info(
            info, levels_per_resolution=self.config.levels_per_resolution
        )
        state = ParticipantState(
            client=info.client,
            node_name=node_name,
            feasible_streams=feasible,
            ssrc_by_resolution=info.ssrc_by_resolution(),
        )
        self._participants[info.client] = state
        self._changed()
        return state

    def join_with_offer(
        self, offer_text: str, info_json: str, node_name: str
    ) -> Tuple[ParticipantState, str]:
        """Wire-format join: SDP offer text + simulcastInfo JSON in, SDP
        answer text out (the Sec. 4.2 negotiation as it crosses the
        signaling channel).

        Raises:
            ValueError: on malformed SDP/simulcastInfo, or when the offer's
                video SSRCs disagree with the simulcastInfo.
        """
        offer = SessionDescription.parse(offer_text)
        info = SimulcastInfo.from_json(info_json)
        offered_ssrcs = set()
        for section in offer.video_sections():
            for value in section.attribute_values("ssrc"):
                offered_ssrcs.add(_offered_ssrc(value))
        declared = {cap.ssrc for cap in info.resolutions}
        if declared - offered_ssrcs:
            raise ValueError(
                "simulcastInfo declares SSRCs absent from the SDP offer: "
                f"{sorted(declared - offered_ssrcs)}"
            )
        state = self.join(info, node_name)
        answer = build_answer(offer, info)
        return state, answer.serialize()

    def join_screen_share(
        self, owner: ClientId, info: SimulcastInfo, node_name: str
    ) -> ParticipantState:
        """Register a screen-share source belonging to ``owner``.

        The simulcastInfo's client id must already be the screen entity id
        (``screen_id(owner)``); the entity shares the owner's uplink.
        """
        if owner not in self._participants:
            raise ValueError(f"unknown owner {owner!r}")
        if info.client != screen_id(owner):
            raise ValueError(
                f"screen share info must use id {screen_id(owner)!r}"
            )
        state = self.join(info, node_name)
        self._owners[info.client] = owner
        self._changed()
        return state

    def leave(self, client: ClientId) -> None:
        """Remove a participant and all references to it."""
        self._participants.pop(client, None)
        self._subscriptions = {
            pair: e
            for pair, e in self._subscriptions.items()
            if e.subscriber != client
            and self.canonical(e.publisher) != client
        }
        for alias in [a for a, t in self._aliases.items() if t == client]:
            del self._aliases[alias]
        self._damper.reset(client)
        self._changed()

    def canonical(self, publisher: ClientId) -> ClientId:
        """Resolve a possibly-virtual publisher id to its target."""
        return self._aliases.get(publisher, publisher)

    def subscribe(
        self,
        subscriber: ClientId,
        publisher: ClientId,
        max_resolution: Resolution = Resolution.P720,
    ) -> None:
        """Record a subscription intent from signaling.

        Subscribing a pair again (a layout change: thumbnail <-> speaker
        tile, ``R_ii'`` changing) replaces its edge.

        Raises:
            ValueError: on an unknown client, a self-subscription, or a
                ``max_resolution`` that is not a :class:`Resolution` rung.
        """
        if subscriber not in self._participants:
            raise ValueError(f"unknown subscriber {subscriber!r}")
        if self.canonical(publisher) not in self._participants:
            raise ValueError(f"unknown publisher {publisher!r}")
        edge = Subscription(subscriber, publisher, max_resolution)
        if self._subscriptions.get((subscriber, publisher)) != edge:
            self._subscriptions[subscriber, publisher] = edge
            self._changed()

    def subscribe_dual(
        self,
        subscriber: ClientId,
        publisher: ClientId,
        primary_max: Resolution = Resolution.P720,
        secondary_max: Resolution = Resolution.P180,
    ) -> ClientId:
        """Record a speaker-first dual subscription (Sec. 4.4)."""
        vid = virtual_id(publisher, tag=f"@{subscriber}")
        self._aliases.setdefault(vid, publisher)
        self.subscribe(subscriber, publisher, primary_max)
        self.subscribe(subscriber, vid, secondary_max)
        return vid

    def set_speaker(self, client: Optional[ClientId]) -> None:
        """Mark the active speaker; their streams get priority QoE weight.

        Meeting-specific data like "who is the current speaker" is part of
        the global picture the conference node collects (Sec. 3).
        """
        speaker = client or ""
        if speaker and speaker not in self._participants:
            raise ValueError(f"unknown speaker {client!r}")
        if self.priority.speaker != speaker:
            self.priority.speaker = speaker
            self._changed()

    def unsubscribe(self, subscriber: ClientId, publisher: ClientId) -> None:
        """Remove one subscription edge (no-op if absent)."""
        if self._subscriptions.pop((subscriber, publisher), None) is not None:
            self._changed()

    # ------------------------------------------------------------------ #
    # Bandwidth collection
    # ------------------------------------------------------------------ #

    def _is_significant(self, old: Optional[int], new: int) -> bool:
        if old is None:
            return True
        baseline = max(old, 1)
        return abs(new - old) / baseline >= self.config.significant_change

    def on_semb_report(
        self, client: ClientId, report: SembReport, now_s: float
    ) -> None:
        """Ingest an uplink bandwidth report (client-side, via RTCP APP).

        The value is always stored (the next decision sees it), but only
        a significant change counts as a change of the picture.
        """
        state = self._participants.get(client)
        if state is None:
            return
        damped = self._damper.filter(client, "uplink", report.bitrate_kbps)
        if self._is_significant(state.uplink_kbps, damped):
            self._changed()
        state.uplink_kbps = damped
        state.last_uplink_report_s = now_s

    def update_downlink(self, client: ClientId, estimate_kbps: float) -> None:
        """Ingest a downlink estimate read off an accessing node."""
        state = self._participants.get(client)
        if state is None:
            return
        damped = self._damper.filter(client, "downlink", int(estimate_kbps))
        if self._is_significant(state.downlink_kbps, damped):
            self._changed()
        state.downlink_kbps = damped

    # ------------------------------------------------------------------ #
    # Snapshot for the controller
    # ------------------------------------------------------------------ #

    def participants(self) -> List[ClientId]:
        """All joined participant ids, sorted."""
        return sorted(self._participants)

    def participant(self, client: ClientId) -> ParticipantState:
        """State of one participant (KeyError if unknown)."""
        return self._participants[client]

    def ssrc_for(self, publisher: ClientId, resolution: Resolution) -> Optional[int]:
        """The negotiated SSRC of (publisher, resolution), or None."""
        state = self._participants.get(publisher)
        if state is None:
            return None
        return state.ssrc_by_resolution.get(resolution)

    def _budget(self, measured_kbps: int) -> int:
        """Headroom + quantization applied to one measured bandwidth."""
        cfg = self.config
        usable = measured_kbps * cfg.headroom_fraction
        quantum = max(1, cfg.bandwidth_quantum_kbps)
        return int(usable // quantum) * quantum

    def snapshot(self, now_s: Optional[float] = None) -> Problem:
        """Build the orchestration problem from the current global picture.

        Args:
            now_s: current time; when provided, publishers whose SEMB
                reports have gone stale (lost on a congested uplink) fall
                back to a conservative uplink budget — the server half of
                the Sec. 7 design-for-failure story.
        """
        cfg = self.config
        feasible: Dict[ClientId, List[StreamSpec]] = {}
        bandwidth: Dict[ClientId, Bandwidth] = {}
        for client, state in self._participants.items():
            if client in self._owners:
                # Screen entities publish but have no own network budget.
                feasible[client] = state.feasible_streams
                continue
            feasible[client] = state.feasible_streams
            uplink = (
                state.uplink_kbps
                if state.uplink_kbps is not None
                else cfg.default_bandwidth_kbps
            )
            if (
                now_s is not None
                and state.uplink_kbps is not None
                and state.last_uplink_report_s >= 0
                and now_s - state.last_uplink_report_s > cfg.uplink_report_stale_s
            ):
                uplink = min(uplink, cfg.stale_uplink_fallback_kbps)
            downlink = (
                state.downlink_kbps
                if state.downlink_kbps is not None
                else cfg.default_bandwidth_kbps
            )
            audible = min(
                max(0, len(self._participants) - len(self._owners) - 1),
                cfg.audio_mix_cap,
            )
            bandwidth[client] = Bandwidth(
                uplink_kbps=self._budget(uplink),
                downlink_kbps=self._budget(downlink),
                audio_protection_kbps=cfg.audio_protection_kbps
                * max(1, audible),
            )
        weighted = self.priority.apply(feasible)
        return Problem(
            feasible_streams=weighted,
            bandwidth=bandwidth,
            subscriptions=list(self._subscriptions.values()),
            aliases=dict(self._aliases),
            owners=dict(self._owners),
        )
