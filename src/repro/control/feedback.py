"""Feedback execution: turning solutions into TMMBR + forwarding updates.

Once the controller has a new solution, two things must change in the
running conference (Sec. 4.3):

* every publisher whose stream configuration changed receives a GSO TMMBR
  (one FCI entry per resolution SSRC; zero mantissa disables a stream),
  delivered reliably (retransmit until the TMMBN arrives);
* every accessing node's forwarding tables are updated so each subscriber
  receives exactly the assigned stream SSRC from each publisher entity.

:class:`FeedbackExecutor` performs both, diffing against the previously
executed solution so unchanged publishers/subscribers see no churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.solution import Solution
from ..core.types import ClientId, Resolution
from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..media.sfu import AccessingNode
from ..net.simulator import Simulator
from ..rtp.tmmbr import GsoTmmbn, ReliableTmmbrSender, TmmbrEntry
from .conference_node import ConferenceNode

#: A publisher's wire configuration: resolution -> kbps (absent = stopped).
WireConfig = Dict[Resolution, int]


@dataclass
class FeedbackStats:
    """Counters for tests and the orchestration benchmarks."""

    tmmbr_sent: int = 0
    forwarding_updates: int = 0
    executions: int = 0


class FeedbackExecutor:
    """Applies solutions to the media plane and the user plane."""

    def __init__(
        self,
        sim: Simulator,
        conference: ConferenceNode,
        nodes: Mapping[str, AccessingNode],
        controller_ssrc: int = 0xC0FFEE,
        retransmit_interval_s: float = 0.25,
        max_attempts: int = 8,
    ) -> None:
        self._sim = sim
        self._conference = conference
        self._nodes = dict(nodes)
        self._controller_ssrc = controller_ssrc
        self._reliable = ReliableTmmbrSender(
            transmit=self._transmit_tmmbr,
            schedule=lambda delay, cb: sim.schedule(delay, cb),
            retransmit_interval_s=retransmit_interval_s,
            max_attempts=max_attempts,
        )
        self._last_config: Dict[ClientId, WireConfig] = {}
        self._config_installed_s: Dict[ClientId, float] = {}
        #: (publisher, resolution) -> since when that stream is expected.
        self._expected_since: Dict[Tuple[ClientId, Resolution], float] = {}
        self._consumed_failures = 0
        self._last_forwarding: Dict[Tuple[ClientId, ClientId], Optional[int]] = {}
        self.stats = FeedbackStats()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, solution: Solution) -> None:
        """Push a solution out: TMMBR to changed publishers, forwarding
        updates to accessing nodes."""
        self.stats.executions += 1
        # Targets whose last TMMBR was never acknowledged (gave up after
        # max retransmits, e.g. on a badly lossy downlink) are re-sent:
        # forget their recorded config so the diff fires again.
        failures = self._reliable.failed_targets
        while self._consumed_failures < len(failures):
            self._last_config.pop(failures[self._consumed_failures], None)
            self._consumed_failures += 1
        tmmbr_before = self.stats.tmmbr_sent
        updates_before = self.stats.forwarding_updates
        self._execute_publisher_configs(solution)
        self._execute_forwarding(solution)
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.FEEDBACK_EXECUTIONS).inc()
            reg.counter(obs_names.FEEDBACK_TMMBR_SENT).inc(
                self.stats.tmmbr_sent - tmmbr_before
            )
            reg.counter(obs_names.FEEDBACK_FORWARDING_UPDATES).inc(
                self.stats.forwarding_updates - updates_before
            )
            reg.histogram(obs_names.FEEDBACK_FANOUT).observe(
                self.stats.tmmbr_sent - tmmbr_before
            )

    def _desired_configs(self, solution: Solution) -> Dict[ClientId, WireConfig]:
        """Per publisher entity, the resolution->kbps config to install.

        Entities that published before but are absent from the solution
        must be explicitly stopped (the Fig. 3a fix: "the controller will
        inform the publisher to stop pushing that stream").
        """
        desired: Dict[ClientId, WireConfig] = {
            pub: {res: e.bitrate_kbps for res, e in entries.items()}
            for pub, entries in solution.policies.items()
        }
        for pub in self._last_config:
            desired.setdefault(pub, {})
        return desired

    def _execute_publisher_configs(self, solution: Solution) -> None:
        for pub, config in sorted(self._desired_configs(solution).items()):
            if self._last_config.get(pub) == config:
                continue
            try:
                entries = self._build_entries(pub, config)
            except KeyError:
                # The publisher left the conference: drop its state.
                self._last_config.pop(pub, None)
                continue
            if not entries:
                self._last_config[pub] = config
                continue
            self._reliable.send(
                target=pub,
                sender_ssrc=self._controller_ssrc,
                entries=entries,
            )
            self.stats.tmmbr_sent += 1
            self._last_config[pub] = config
            self._config_installed_s[pub] = self._sim.now
            for res, kbps in config.items():
                if kbps > 0:
                    self._expected_since.setdefault((pub, res), self._sim.now)
            for key in list(self._expected_since):
                if key[0] == pub and config.get(key[1], 0) <= 0:
                    del self._expected_since[key]

    def _build_entries(
        self, publisher: ClientId, config: WireConfig
    ) -> List[TmmbrEntry]:
        """One TMMBR entry per negotiated resolution: configured rungs get
        their bitrate, everything else an explicit zero (stop)."""
        state = self._conference.participant(publisher)
        entries: List[TmmbrEntry] = []
        for resolution, ssrc in sorted(state.ssrc_by_resolution.items()):
            kbps = config.get(resolution, 0)
            entries.append(
                TmmbrEntry(ssrc=ssrc, bitrate_bps=int(kbps) * 1000)
            )
        return entries

    def _execute_forwarding(self, solution: Solution) -> None:
        desired: Dict[Tuple[ClientId, ClientId], Optional[int]] = {}
        for sub, per_pub in solution.assignments.items():
            for literal_pub, stream in per_pub.items():
                canonical = self._conference.canonical(literal_pub)
                ssrc = self._conference.ssrc_for(canonical, stream.resolution)
                desired[(sub, literal_pub)] = ssrc
        # Clear forwarding for pairs that lost their stream.
        for key in self._last_forwarding:
            desired.setdefault(key, None)
        for (sub, literal_pub), ssrc in sorted(
            desired.items(), key=lambda item: item[0]
        ):
            if self._last_forwarding.get(sub_pub_key := (sub, literal_pub)) == ssrc:
                continue
            node = self._node_of(sub)
            if node is not None and sub in node.attached_clients:
                node.set_video_forwarding(sub, literal_pub, ssrc)
                self.stats.forwarding_updates += 1
            self._last_forwarding[sub_pub_key] = ssrc

    # ------------------------------------------------------------------ #
    # Stream-liveness watchdog (Sec. 7 client-failure downgrade)
    # ------------------------------------------------------------------ #

    def dead_configured_streams(
        self, now: float, grace_s: float = 0.8, stale_s: float = 0.8
    ) -> List[Tuple[ClientId, Resolution]]:
        """Configured streams that are NOT flowing while a sibling is.

        The paper's client-failure scenario: "while a server instructs a
        client to send multiple streams, only a low bitrate stream is
        received".  A stream counts as dead only if its configuration has
        been installed for at least ``grace_s`` (time to start encoding)
        and the client is otherwise demonstrably *up* — another of its
        streams, its audio, or its RTCP is still arriving.  A client from
        which nothing arrives at all is a network outage, where a
        downgrade would not help.
        """
        dead: List[Tuple[ClientId, Resolution]] = []
        for (pub, res), since in self._expected_since.items():
            if now - since < grace_s:
                continue
            try:
                state = self._conference.participant(pub)
            except KeyError:
                continue
            node = self._nodes.get(state.node_name)
            if node is None:
                continue
            if node.stream_alive(
                state.ssrc_by_resolution.get(res), now, within_s=stale_s
            ):
                continue
            owner = pub.split(":", 1)[0]  # screen entities share the client
            sibling_alive = any(
                node.stream_alive(ssrc, now, within_s=stale_s)
                for other, ssrc in state.ssrc_by_resolution.items()
                if other != res
            )
            if sibling_alive or node.client_alive(owner, now, within_s=stale_s):
                dead.append((pub, res))
        return dead

    # ------------------------------------------------------------------ #
    # Transport plumbing
    # ------------------------------------------------------------------ #

    def _node_of(self, client: ClientId) -> Optional[AccessingNode]:
        try:
            state = self._conference.participant(client)
        except KeyError:
            return None
        return self._nodes.get(state.node_name)

    def _transmit_tmmbr(self, target: ClientId, request) -> None:
        node = self._node_of(target)
        if node is None or target not in node.attached_clients:
            return  # client left (or never attached): nothing to configure
        node.send_rtcp_to_client(target, request.to_app_packet().serialize())

    def on_tmmbn(self, client: ClientId, notification: GsoTmmbn) -> bool:
        """Feed an incoming TMMBN (from the accessing node's RTCP hook)."""
        return self._reliable.on_tmmbn(client, notification)

    @property
    def pending_acks(self) -> int:
        """Outstanding unacknowledged TMMBR count."""
        return self._reliable.pending_count

    @property
    def failed_targets(self) -> List[ClientId]:
        """Clients whose TMMBR delivery gave up (retried next solve)."""
        return self._reliable.failed_targets
