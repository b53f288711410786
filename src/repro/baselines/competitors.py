"""Synthetic models of the two commercial comparators in Fig. 8.

The paper benchmarks GSO against "the other two commercial video
conferencing apps from top competitors" without naming them.  We model the
two standard architecture archetypes their failure modes in Fig. 8 imply:

* **Competitor 1 — laggy receiver-driven simulcast**: coarse 3-layer
  simulcast, switching on a slow cadence driven by the clients' actual
  REMB reports — the real receiver-side estimation pipeline
  (:mod:`repro.cc.receiver_estimate` + the PSFB REMB wire format), which
  the paper notes "offers [worse] accuracy than sender-side" (Sec. 4.2).
  It eventually adapts, so it degrades mostly under *fast* or *downlink*
  impairments.
* **Competitor 2 — single-stream slow adaptation**: no simulcast at all;
  one stream per publisher adapted to the publisher's uplink only, with a
  slow multiplicative backoff.  Receivers with slow downlinks simply
  suffer (the Sec. 2.2 slow-link problem embodied).

Both reuse the same client/SFU substrate as GSO and non-GSO so Fig. 8
differences come from orchestration, not plumbing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..client.client import ConferenceClient
from ..client.policies import COARSE_LAYERS, LocalDownlinkSwitcher
from ..core.types import ClientId, Resolution
from ..media.sfu import AccessingNode
from ..net.simulator import PeriodicTask, Simulator


class Competitor1Orchestrator:
    """Laggy receiver-driven coarse simulcast."""

    def __init__(
        self,
        sim: Simulator,
        node: AccessingNode,
        clients: Mapping[ClientId, ConferenceClient],
        subscriptions: List[Tuple[ClientId, ClientId, Resolution]],
        ssrc_of: Callable[[ClientId, Resolution], Optional[int]],
        switch_interval_s: float = 3.0,
        smoothing: float = 0.85,
    ) -> None:
        self._sim = sim
        self._node = node
        self._clients = dict(clients)
        self._ssrc_of = ssrc_of
        self.switcher = LocalDownlinkSwitcher(headroom=1.0)  # no headroom
        self._smoothing = smoothing
        self._smoothed_downlink: Dict[ClientId, float] = {}
        self._watched: Dict[ClientId, List[Tuple[ClientId, Resolution]]] = {}
        for sub, pub, cap in subscriptions:
            self._watched.setdefault(sub, []).append((pub, cap))
        self._task = PeriodicTask(
            sim, switch_interval_s, self._adapt, start_offset=0.5
        )

    def stop(self) -> None:
        """Stop the periodic activity (idempotent)."""
        self._task.stop()

    def _adapt(self) -> None:
        # Publishers: always push every coarse layer the uplink nominally
        # carries — no subscriber awareness at all.
        for client in self._clients.values():
            estimate = client.uplink_estimate_kbps()
            layers = {
                res: kbps
                for res, kbps in COARSE_LAYERS
                if kbps <= estimate
            }
            if not layers and COARSE_LAYERS:
                res, kbps = COARSE_LAYERS[-1]
                layers = {res: kbps}
            client.encoder.configure(layers)
        # Subscribers: switch on the receiver-side REMB value (falling
        # back to a heavily smoothed sender-side estimate before the first
        # report arrives).
        for sub, watched in self._watched.items():
            remb = self._node.remb_estimate_kbps(sub)
            if remb is not None:
                raw = float(remb)
            else:
                raw = self._node.downlink_estimate_kbps(sub)
            prev = self._smoothed_downlink.get(sub, raw)
            smoothed = self._smoothing * prev + (1 - self._smoothing) * raw
            self._smoothed_downlink[sub] = smoothed
            for pub, cap in watched:
                publisher = self._clients.get(pub)
                if publisher is None:
                    continue
                resolution = self.switcher.select_stream(
                    downlink_estimate_kbps=smoothed,
                    available_layers=publisher.encoder.active_encodings,
                    n_watched_publishers=len(watched),
                    max_resolution=cap,
                )
                ssrc = (
                    self._ssrc_of(pub, resolution)
                    if resolution is not None
                    else None
                )
                self._node.set_video_forwarding(sub, pub, ssrc)


class Competitor2Orchestrator:
    """Single-stream per publisher with slow sender-side adaptation."""

    def __init__(
        self,
        sim: Simulator,
        node: AccessingNode,
        clients: Mapping[ClientId, ConferenceClient],
        subscriptions: List[Tuple[ClientId, ClientId, Resolution]],
        ssrc_of: Callable[[ClientId, Resolution], Optional[int]],
        adapt_interval_s: float = 2.0,
        start_kbps: int = 1200,
        backoff: float = 0.8,
        recovery: float = 1.05,
    ) -> None:
        self._sim = sim
        self._node = node
        self._clients = dict(clients)
        self._ssrc_of = ssrc_of
        self._rates: Dict[ClientId, float] = {
            cid: float(start_kbps) for cid in clients
        }
        self._backoff = backoff
        self._recovery = recovery
        self._subscriptions = list(subscriptions)
        self._forwarding_installed = False
        self._task = PeriodicTask(
            sim, adapt_interval_s, self._adapt, start_offset=0.5
        )

    def stop(self) -> None:
        """Stop the periodic activity (idempotent)."""
        self._task.stop()

    def _adapt(self) -> None:
        for cid, client in self._clients.items():
            estimate = client.uplink_estimate_kbps()
            rate = self._rates[cid]
            if estimate < rate:
                rate = max(150.0, rate * self._backoff)
            else:
                rate = min(estimate, rate * self._recovery)
            self._rates[cid] = rate
            # One 720p stream whatever the rate: no simulcast fallback.
            client.encoder.configure({Resolution.P720: int(rate)})
        if not self._forwarding_installed:
            # Static forwarding: everyone gets the single stream.
            for sub, pub, _cap in self._subscriptions:
                ssrc = self._ssrc_of(pub, Resolution.P720)
                if sub in self._node.attached_clients and ssrc is not None:
                    self._node.set_video_forwarding(sub, pub, ssrc)
            self._forwarding_installed = True
