"""Rate-limited link model: the bottleneck element of the simulation.

A :class:`Link` models one direction of a network path as

* a FIFO **serialization queue** drained at the link bandwidth (time-varying
  via :meth:`set_bandwidth_kbps`), bounded by a byte-budget measured in
  milliseconds of queueing at the current rate — packets arriving to a full
  queue are tail-dropped (this is what congestion "looks like" to the
  congestion controller: growing one-way delay, then loss);
* a constant **propagation delay** plus random per-packet **jitter**;
* an i.i.d. random **loss** process (the Table 2 "loss 30 % / 50 %" cases).

Delivery callbacks fire inside the simulator event loop.  Jitter may
reorder packets — exactly why receivers need a jitter buffer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .packet import Packet
from .simulator import Simulator

#: Delivery callbacks receive the packet and the delivery time.
DeliveryCallback = Callable[[Packet, float], None]


@dataclass
class LinkStats:
    """Counters accumulated over a link's lifetime."""

    sent_packets: int = 0
    delivered_packets: int = 0
    lost_packets: int = 0
    queue_dropped_packets: int = 0
    delivered_bytes: int = 0

    @property
    def loss_rate(self) -> float:
        """Fraction of sent packets not delivered (random + queue drops)."""
        if self.sent_packets == 0:
            return 0.0
        return 1.0 - self.delivered_packets / self.sent_packets


class Link:
    """One direction of a network path.

    Args:
        sim: the event loop.
        bandwidth_kbps: initial serialization rate.
        propagation_ms: constant one-way delay.
        jitter_ms: mean of the exponentially-distributed per-packet extra
            delay (0 disables jitter).  Every delay, and the bandwidth,
            must be finite and non-negative (the bandwidth positive).
        loss_rate: i.i.d. drop probability in [0, 1).
        queue_ms: queue capacity expressed as milliseconds of buffering at
            the current bandwidth (a common router sizing rule).
        rng: randomness source for loss and jitter; required when either is
            non-zero so runs stay reproducible.
        name: label used in diagnostics.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_kbps: float,
        propagation_ms: float = 20.0,
        jitter_ms: float = 0.0,
        loss_rate: float = 0.0,
        queue_ms: float = 300.0,
        rng: Optional[random.Random] = None,
        name: str = "link",
    ) -> None:
        if not 0 < bandwidth_kbps < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        for field, ms in (
            ("propagation_ms", propagation_ms),
            ("jitter_ms", jitter_ms),
            ("queue_ms", queue_ms),
        ):
            if not 0 <= ms < math.inf:
                raise ValueError(f"{field} must be finite and non-negative, got {ms}")
        if not 0 <= loss_rate < 1:
            raise ValueError("loss_rate must be in [0, 1)")
        if (jitter_ms > 0 or loss_rate > 0) and rng is None:
            raise ValueError("rng is required when jitter or loss is enabled")
        self._sim = sim
        self._bandwidth_kbps = bandwidth_kbps
        self.propagation_ms = propagation_ms
        self.jitter_ms = jitter_ms
        self.loss_rate = loss_rate
        self.queue_ms = queue_ms
        self._rng = rng or random.Random(0)
        self.name = name
        self._busy_until = 0.0
        self._receiver: Optional[DeliveryCallback] = None
        self.stats = LinkStats()

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    @property
    def bandwidth_kbps(self) -> float:
        """The current serialization rate in kbps."""
        return self._bandwidth_kbps

    def set_bandwidth_kbps(self, value: float) -> None:
        """Change the link rate (Fig. 7's abrupt bandwidth steps)."""
        if not 0 < value < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        self._bandwidth_kbps = value

    def connect(self, receiver: DeliveryCallback) -> None:
        """Attach the delivery callback (the far end of the link)."""
        self._receiver = receiver

    # ------------------------------------------------------------------ #
    # Data path
    # ------------------------------------------------------------------ #

    def queue_delay_s(self) -> float:
        """Current backlog expressed in seconds of serialization time."""
        return max(0.0, self._busy_until - self._sim.now)

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet for transmission.

        Returns:
            True if the packet was accepted (it may still be randomly
            lost in flight); False if it was tail-dropped by the queue.
        """
        if self._receiver is None:
            raise RuntimeError(f"{self.name}: send() before connect()")
        self.stats.sent_packets += 1

        if self.queue_delay_s() * 1000.0 > self.queue_ms:
            self.stats.queue_dropped_packets += 1
            return False

        serialization_s = packet.size_bytes * 8.0 / (self._bandwidth_kbps * 1000.0)
        start = max(self._sim.now, self._busy_until)
        self._busy_until = start + serialization_s

        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.stats.lost_packets += 1
            return True  # accepted, then lost in flight

        delay = self._busy_until - self._sim.now + self.propagation_ms / 1000.0
        if self.jitter_ms > 0:
            delay += self._rng.expovariate(1.0 / (self.jitter_ms / 1000.0))
        packet.sent_at = self._sim.now
        self._sim.schedule(delay, lambda: self._deliver(packet))
        return True

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += packet.size_bytes
        assert self._receiver is not None
        self._receiver(packet, self._sim.now)
