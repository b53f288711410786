"""Pacer with probe bursts (Sec. 7, "Addressing bandwidth over-estimation").

Media packets are smoothed onto the wire at a small multiple of the target
bitrate instead of in per-frame bursts.  On top of pacing, the paper's fix
for GCC's small-stream over-estimation is implemented here: "we send
probing packets in short bursts controlled by a pacer to probe the
bandwidth upper bound", with the probing redundancy kept low to bound the
traffic overhead.

A probe cluster sends ``probe_packets`` padding packets at
``probe_rate_factor`` x the current estimate; the observed delivery rate
and congestion signals go back to the estimator via
:meth:`GccEstimator.on_probe_result`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from ..net.packet import Packet
from ..net.simulator import Simulator


@dataclass
class PacerConfig:
    """Pacing and probing knobs."""

    #: Pace at this multiple of the target bitrate (WebRTC uses 2.5 for
    #: bursts; a mild 1.5 keeps queues calm in steady state).
    pacing_factor: float = 1.5
    #: Packets per probe cluster.
    probe_packets: int = 15
    #: Probe at this multiple of the current estimate.
    probe_rate_factor: float = 2.0
    #: Bytes per probe padding packet.
    probe_packet_bytes: int = 500
    #: Minimum spacing between probe clusters (redundancy control).
    probe_min_interval_s: float = 5.0


class Pacer:
    """Rate-smoothing send queue feeding one uplink.

    Args:
        sim: the event loop.
        send: the raw transmit hook (typically ``link.send``).
        target_kbps: initial pacing target.
        config: pacing/probing configuration.
    """

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[Packet], None],
        target_kbps: float = 1000.0,
        config: Optional[PacerConfig] = None,
    ) -> None:
        if target_kbps <= 0:
            raise ValueError("target rate must be positive")
        self._sim = sim
        self._send = send
        self._target_kbps = target_kbps
        self.config = config or PacerConfig()
        self._queue: Deque[Packet] = deque()
        self._draining = False
        self._next_send_time = 0.0
        self._last_probe_time = -1e9
        self.sent_packets = 0
        self.sent_probe_packets = 0

    # ------------------------------------------------------------------ #
    # Media path
    # ------------------------------------------------------------------ #

    @property
    def target_kbps(self) -> float:
        """Current pacing target in kbps."""
        return self._target_kbps

    def set_target_kbps(self, value: float) -> None:
        """Update the pacing target."""
        if value <= 0:
            raise ValueError("target rate must be positive")
        self._target_kbps = value

    def enqueue(self, packet: Packet) -> None:
        """Queue a media packet for paced transmission."""
        self._queue.append(packet)
        if not self._draining:
            self._draining = True
            delay = max(0.0, self._next_send_time - self._sim.now)
            self._sim.schedule(delay, self._drain_one)

    def _drain_one(self) -> None:
        if not self._queue:
            self._draining = False
            return
        packet = self._queue.popleft()
        self._send(packet)
        self.sent_packets += 1
        pace_rate_kbps = self._target_kbps * self.config.pacing_factor
        gap = packet.size_bytes * 8.0 / (pace_rate_kbps * 1000.0)
        self._next_send_time = self._sim.now + gap
        if self._queue:
            self._sim.schedule(gap, self._drain_one)
        else:
            self._draining = False

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #

    def maybe_probe(
        self,
        estimate_kbps: float,
        make_probe: Callable[[int], Packet],
    ) -> bool:
        """Launch one probe cluster if the redundancy budget allows.

        Args:
            estimate_kbps: the estimator's current value; the cluster is
                paced at ``probe_rate_factor`` times it.
            make_probe: factory producing the k-th padding packet.

        Returns:
            True if a cluster was scheduled.
        """
        cfg = self.config
        if self._sim.now - self._last_probe_time < cfg.probe_min_interval_s:
            return False
        self._last_probe_time = self._sim.now
        probe_rate_kbps = max(estimate_kbps * cfg.probe_rate_factor, 1.0)
        gap = cfg.probe_packet_bytes * 8.0 / (probe_rate_kbps * 1000.0)
        for k in range(cfg.probe_packets):
            packet = make_probe(k)
            self._sim.schedule(k * gap, lambda p=packet: self._send_probe(p))
        return True

    def _send_probe(self, packet: Packet) -> None:
        self._send(packet)
        self.sent_probe_packets += 1
