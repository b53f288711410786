"""Classic (non-GSO) simulcast orchestration — the paper's main baseline.

This is the state of the art the paper argues against (Sec. 1, Sec. 2.3):

* publishers choose their simulcast layers from a **template policy** using
  only their *local* uplink estimate and the participant count — no
  knowledge of who subscribes or what downlinks can take (so unwanted
  streams keep burning uplink, Fig. 3a);
* the SFU switches streams per subscriber with a **local downlink rule**
  (even split of the estimated downlink) over the **coarse 3-layer
  ladder** (so a 1.45 Mbps downlink gets the 600 kbps layer, Fig. 3b, and
  competing publishers get lopsided layers, Fig. 3c);
* there is no uplink/downlink coordination and no controller.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..client.client import ConferenceClient
from ..client.policies import LocalDownlinkSwitcher, TemplateUplinkPolicy
from ..core.types import ClientId, Resolution
from ..media.sfu import AccessingNode
from ..net.simulator import PeriodicTask, Simulator


class NonGsoOrchestrator:
    """Runs template uplink policies + SFU-local switching for a meeting.

    Args:
        sim: the event loop.
        node: the (single) accessing node of the meeting.
        clients: every participant endpoint, by id.
        subscriptions: (subscriber, publisher, max_resolution) triples.
        ssrc_of: lookup (publisher, resolution) -> SSRC.
        adaptation_interval_s: how often both local policies re-evaluate.
    """

    def __init__(
        self,
        sim: Simulator,
        node: AccessingNode,
        clients: Mapping[ClientId, ConferenceClient],
        subscriptions: List[Tuple[ClientId, ClientId, Resolution]],
        ssrc_of: Callable[[ClientId, Resolution], Optional[int]],
        adaptation_interval_s: float = 1.0,
    ) -> None:
        self._sim = sim
        self._node = node
        self._clients = dict(clients)
        self._subscriptions = list(subscriptions)
        self._ssrc_of = ssrc_of
        self.uplink_policy = TemplateUplinkPolicy()
        self.switcher = LocalDownlinkSwitcher()
        self._watched: Dict[ClientId, List[Tuple[ClientId, Resolution]]] = {}
        for sub, pub, cap in self._subscriptions:
            self._watched.setdefault(sub, []).append((pub, cap))
        self._task = PeriodicTask(
            sim, adaptation_interval_s, self._adapt, start_offset=0.5
        )

    def stop(self) -> None:
        """Stop the periodic activity (idempotent)."""
        self._task.stop()

    # ------------------------------------------------------------------ #
    # The two uncoordinated local loops
    # ------------------------------------------------------------------ #

    def _adapt(self) -> None:
        self._adapt_publishers()
        self._adapt_subscribers()

    def _adapt_publishers(self) -> None:
        n = len(self._clients)
        for client in self._clients.values():
            layers = self.uplink_policy.select_layers(
                client.uplink_estimate_kbps(), participant_count=n
            )
            client.encoder.configure(layers)

    def _adapt_subscribers(self) -> None:
        for sub, watched in self._watched.items():
            if sub not in self._node.attached_clients:
                continue
            downlink = self._node.downlink_estimate_kbps(sub)
            for pub, cap in watched:
                publisher = self._clients.get(pub)
                if publisher is None:
                    continue
                layers = publisher.encoder.active_encodings
                resolution = self.switcher.select_stream(
                    downlink_estimate_kbps=downlink,
                    available_layers=layers,
                    n_watched_publishers=len(watched),
                    max_resolution=cap,
                )
                ssrc = (
                    self._ssrc_of(pub, resolution)
                    if resolution is not None
                    else None
                )
                self._node.set_video_forwarding(sub, pub, ssrc)
