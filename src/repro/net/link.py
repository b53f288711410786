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

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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


class FaultyLink:
    """A fault-aware decorator around a :class:`Link` (chaos injection).

    Presents the same data-path surface as a link (``send`` / ``connect``
    / ``stats``) while injecting deterministic faults the wrapped link
    does not model on its own:

    * **blackouts** — scheduled windows during which every offered packet
      is dropped before it reaches the link (a loss *burst*, as opposed to
      the link's i.i.d. random loss);
    * **selective drops** — an optional predicate that silently discards
      matching packets (e.g. only one simulcast stream's SSRC), which is
      exactly the condition Sec. 7's client-side downgrade watchdog
      exists to detect;
    * **delay windows** — scheduled windows during which offered packets
      are held and re-offered to the link ``delay_s`` later (a control
      channel stall, as opposed to in-flight jitter).  Held packets are
      released in ``(release_time, offer_sequence)`` order, so two
      deliveries sharing a timestamp always replay in the order they were
      offered — seeded ingress replays depend on this.

    Injected drops are accounted separately (:attr:`injected_drops`) so a
    test can distinguish chaos from organic queue/loss behaviour;
    :attr:`injected_delays` counts packets held by a delay window.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        drop_predicate: Optional[Callable[[Packet], bool]] = None,
    ) -> None:
        self._sim = sim
        self.link = link
        self.drop_predicate = drop_predicate
        self.injected_drops = 0
        self.injected_delays = 0
        self._blackouts: List[Tuple[float, float]] = []
        self._delays: List[Tuple[float, float, float]] = []
        #: held packets, keyed by (release_time, offer_sequence) so that
        #: same-timestamp releases stay in offer order.
        self._held: List[Tuple[float, int, Packet]] = []
        self._hold_seq = 0

    def add_blackout(self, start_s: float, end_s: float) -> None:
        """Drop every packet offered in ``[start_s, end_s)``."""
        if end_s < start_s:
            raise ValueError("blackout must end at or after it starts")
        self._blackouts.append((start_s, end_s))

    def in_blackout(self, now_s: float) -> bool:
        """Whether ``now_s`` falls inside any scheduled blackout window."""
        return any(start <= now_s < end for start, end in self._blackouts)

    def add_delay_window(
        self, start_s: float, end_s: float, delay_s: float
    ) -> None:
        """Hold packets offered in ``[start_s, end_s)``; release after
        ``delay_s``."""
        if end_s < start_s:
            raise ValueError("delay window must end at or after it starts")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self._delays.append((start_s, end_s, delay_s))

    def delay_at(self, now_s: float) -> Optional[float]:
        """The injected hold time at ``now_s``, or None outside windows.

        Overlapping windows compound: a packet caught by several windows
        is held for their summed delay.
        """
        total = 0.0
        hit = False
        for start, end, delay_s in self._delays:
            if start <= now_s < end:
                total += delay_s
                hit = True
        return total if hit else None

    def _release_due(self) -> None:
        """Re-offer every held packet whose release time has arrived.

        The hold buffer is a heap keyed by ``(release_time, sequence)``:
        ties on release time break by the order packets were offered,
        keeping replays byte-deterministic.
        """
        now = self._sim.now
        while self._held and self._held[0][0] <= now + 1e-12:
            _, _, packet = heapq.heappop(self._held)
            self.link.send(packet)

    # -- Link surface ---------------------------------------------------- #

    @property
    def name(self) -> str:
        """The wrapped link's diagnostic label."""
        return self.link.name

    @property
    def stats(self) -> LinkStats:
        """The wrapped link's counters (injected drops never reach it)."""
        return self.link.stats

    def connect(self, receiver: DeliveryCallback) -> None:
        """Attach the delivery callback on the wrapped link."""
        self.link.connect(receiver)

    def send(self, packet: Packet) -> bool:
        """Offer a packet; chaos drops short-circuit the real link.

        Returns:
            False when the packet was dropped by an injected fault or the
            link's queue; True when the link accepted it.
        """
        if self.in_blackout(self._sim.now) or (
            self.drop_predicate is not None and self.drop_predicate(packet)
        ):
            self.injected_drops += 1
            return False
        delay_s = self.delay_at(self._sim.now)
        if delay_s is not None:
            self.injected_delays += 1
            self._hold_seq += 1
            release = self._sim.now + delay_s
            heapq.heappush(self._held, (release, self._hold_seq, packet))
            self._sim.schedule(delay_s, self._release_due)
            return True  # accepted, held in the fault buffer
        return self.link.send(packet)
