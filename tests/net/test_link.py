"""Unit tests for the link model."""

import math
import random

import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.simulator import Simulator


def collect(link):
    received = []
    link.connect(lambda p, t: received.append((p, t)))
    return received


def pkt(size=1000):
    return Packet(payload=b"", size_bytes=size)


class TestLinkBasics:
    def test_delivery_includes_serialization_and_propagation(self):
        sim = Simulator()
        link = Link(sim, bandwidth_kbps=1000, propagation_ms=20)
        received = collect(link)
        link.send(pkt(1000))  # 8000 bits / 1 Mbps = 8 ms
        sim.run_until(1.0)
        assert len(received) == 1
        assert received[0][1] == pytest.approx(0.008 + 0.020)

    def test_back_to_back_packets_queue(self):
        sim = Simulator()
        link = Link(sim, bandwidth_kbps=1000, propagation_ms=0)
        received = collect(link)
        link.send(pkt(1000))
        link.send(pkt(1000))
        sim.run_until(1.0)
        assert [t for _, t in received] == [
            pytest.approx(0.008),
            pytest.approx(0.016),
        ]

    def test_fifo_order_without_jitter(self):
        sim = Simulator()
        link = Link(sim, bandwidth_kbps=500, propagation_ms=10)
        received = collect(link)
        for k in range(5):
            link.send(Packet(payload=k, size_bytes=500))
        sim.run_until(2.0)
        assert [p.payload for p, _ in received] == [0, 1, 2, 3, 4]

    def test_send_before_connect_raises(self):
        sim = Simulator()
        link = Link(sim, bandwidth_kbps=1000)
        with pytest.raises(RuntimeError):
            link.send(pkt())

    def test_queue_overflow_drops(self):
        sim = Simulator()
        # 100 kbps with 100 ms queue: 1000-byte packet = 80 ms each.
        link = Link(sim, bandwidth_kbps=100, queue_ms=100)
        received = collect(link)
        results = [link.send(pkt(1000)) for _ in range(5)]
        sim.run_until(10.0)
        assert results[0] is True
        assert False in results  # later packets tail-dropped
        assert link.stats.queue_dropped_packets > 0
        assert len(received) < 5

    def test_random_loss(self):
        sim = Simulator()
        rng = random.Random(1)
        link = Link(sim, bandwidth_kbps=10_000, loss_rate=0.5, rng=rng)
        received = collect(link)
        for _ in range(400):
            link.send(pkt(100))
        sim.run_until(60.0)
        assert 100 < len(received) < 300  # ~50% loss
        assert link.stats.lost_packets + link.stats.delivered_packets == 400

    def test_jitter_adds_delay(self):
        sim = Simulator()
        rng = random.Random(2)
        link = Link(
            sim, bandwidth_kbps=10_000, propagation_ms=10, jitter_ms=50, rng=rng
        )
        received = collect(link)
        for _ in range(200):
            link.send(pkt(100))
        sim.run_until(120.0)
        delays = [t - p.sent_at for p, t in received]
        mean_extra = sum(delays) / len(delays) - 0.010
        # Mean exponential jitter ~ 50 ms.
        assert 0.030 < mean_extra < 0.080

    def test_requires_rng_with_loss_or_jitter(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 1000, loss_rate=0.1)
        with pytest.raises(ValueError):
            Link(sim, 1000, jitter_ms=10)

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 0)
        with pytest.raises(ValueError):
            Link(sim, 100, loss_rate=1.0, rng=random.Random(0))

    @pytest.mark.parametrize("field", ["propagation_ms", "jitter_ms", "queue_ms"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -50.0])
    def test_rejects_bad_delays(self, field, value):
        # inf jitter would reach random.expovariate(0); nan and negative
        # jitter would run silently as no jitter.
        with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
            Link(Simulator(), 100, rng=random.Random(0), **{field: value})

    def test_zero_delays_are_valid(self):
        link = Link(Simulator(), 100, propagation_ms=0, jitter_ms=0, queue_ms=0)
        assert link.queue_ms == 0


class TestBandwidthChange:
    def test_set_bandwidth_affects_subsequent_packets(self):
        sim = Simulator()
        link = Link(sim, bandwidth_kbps=1000, propagation_ms=0)
        received = collect(link)
        link.send(pkt(1000))  # 8 ms at 1 Mbps
        sim.run_until(0.5)
        link.set_bandwidth_kbps(100)
        link.send(pkt(1000))  # 80 ms at 100 kbps
        sim.run_until(2.0)
        assert received[1][1] - 0.5 == pytest.approx(0.080)

    def test_rejects_non_positive(self):
        sim = Simulator()
        link = Link(sim, 100)
        with pytest.raises(ValueError):
            link.set_bandwidth_kbps(0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, value):
        sim = Simulator()
        link = Link(sim, 100)
        with pytest.raises(ValueError, match="positive and finite"):
            link.set_bandwidth_kbps(value)
        with pytest.raises(ValueError, match="positive and finite"):
            Link(sim, value)
        assert link.bandwidth_kbps == 100


class TestStatsAndHelpers:
    def test_loss_rate_property(self):
        sim = Simulator()
        link = Link(sim, bandwidth_kbps=100, queue_ms=50)
        collect(link)
        for _ in range(10):
            link.send(pkt(1000))
        sim.run_until(10.0)
        assert 0 < link.stats.loss_rate < 1

    def test_queue_delay_reflects_backlog(self):
        sim = Simulator()
        link = Link(sim, bandwidth_kbps=100)
        collect(link)
        assert link.queue_delay_s() == 0.0
        link.send(pkt(1000))
        assert link.queue_delay_s() == pytest.approx(0.080)
