"""Unit tests for the link model."""

import math
import random

import pytest

from repro.net.link import FaultyLink, Link
from repro.net.packet import Packet
from repro.net.simulator import PeriodicTask, Simulator


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


class TestFaultyLink:
    def test_delegates_when_no_fault_active(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=1000))
        received = collect(faulty)
        assert faulty.send(pkt()) is True
        sim.run_until(1.0)
        assert len(received) == 1
        assert faulty.injected_drops == 0

    def test_blackout_drops_everything_in_window(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=1000))
        faulty.add_blackout(1.0, 2.0)
        received = collect(faulty)
        for when in (0.5, 1.5, 2.5):
            sim.schedule_at(when, lambda: faulty.send(pkt()))
        sim.run_until(5.0)
        assert len(received) == 2  # the 1.5 s packet was injected away
        assert faulty.injected_drops == 1

    def test_blackout_window_is_half_open(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=1000))
        faulty.add_blackout(1.0, 2.0)
        assert not faulty.in_blackout(0.999)
        assert faulty.in_blackout(1.0)
        assert faulty.in_blackout(1.999)
        assert not faulty.in_blackout(2.0)

    def test_burst_dropped_only_the_high_stream(self):
        # Sec. 7's failure shape: a publisher's high stream goes dark for
        # 4 s while its low stream, on its own path, keeps flowing.
        sim = Simulator()
        high = FaultyLink(sim, Link(sim, 5000.0, name="A-high"))
        high.add_blackout(4.0, 8.0)
        high_received = collect(high)
        low = Link(sim, 5000.0, name="A-low")
        low_received = collect(low)
        for link, size in ((high, 1200), (low, 300)):
            PeriodicTask(
                sim,
                0.1,
                lambda link=link, size=size: link.send(pkt(size)),
                start_offset=0.05,
            )
        sim.run_until(12.0)
        # ~40 packets offered during the 4 s blackout at 10 Hz.
        assert 35 <= high.injected_drops <= 45
        assert high.stats.lost_packets == 0  # drops were injected, not organic
        assert len(high_received) + high.injected_drops == len(low_received)

    def test_multiple_blackouts(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=1000))
        faulty.add_blackout(1.0, 2.0)
        faulty.add_blackout(3.0, 4.0)
        assert faulty.in_blackout(1.5)
        assert not faulty.in_blackout(2.5)
        assert faulty.in_blackout(3.5)

    def test_rejects_inverted_blackout(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=1000))
        with pytest.raises(ValueError):
            faulty.add_blackout(2.0, 1.0)

    def test_drop_predicate_is_selective(self):
        sim = Simulator()
        faulty = FaultyLink(
            sim,
            Link(sim, bandwidth_kbps=1000),
            drop_predicate=lambda p: p.src == "high",
        )
        received = collect(faulty)
        assert faulty.send(Packet(payload=b"", size_bytes=100, src="high")) is False
        assert faulty.send(Packet(payload=b"", size_bytes=100, src="low")) is True
        sim.run_until(1.0)
        assert [p.src for p, _ in received] == ["low"]
        assert faulty.injected_drops == 1

    def test_injected_drops_bypass_link_stats(self):
        sim = Simulator()
        inner = Link(sim, bandwidth_kbps=1000)
        faulty = FaultyLink(sim, inner, drop_predicate=lambda p: True)
        collect(faulty)
        faulty.send(pkt())
        assert faulty.injected_drops == 1
        assert inner.stats.sent_packets == 0
        assert faulty.stats is inner.stats

    def test_presents_link_surface(self):
        sim = Simulator()
        inner = Link(sim, bandwidth_kbps=1000, name="inner")
        faulty = FaultyLink(sim, inner)
        assert faulty.name == "inner"


class TestFaultyLinkDelay:
    def test_delay_window_holds_and_releases(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=10_000, propagation_ms=0))
        faulty.add_delay_window(0.0, 1.0, 0.5)
        received = collect(faulty)
        assert faulty.send(pkt(100)) is True
        sim.run_until(0.4)
        assert received == []  # still held
        sim.run_until(2.0)
        assert len(received) == 1
        assert received[0][1] >= 0.5
        assert faulty.injected_delays == 1

    def test_outside_window_passes_through(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=10_000, propagation_ms=0))
        faulty.add_delay_window(1.0, 2.0, 0.5)
        received = collect(faulty)
        faulty.send(pkt(100))
        sim.run_until(0.5)
        assert len(received) == 1
        assert faulty.injected_delays == 0

    def test_equal_release_times_keep_offer_order(self):
        """Regression: two deliveries sharing a release timestamp must
        replay in (time, sequence) order — the order they were offered."""
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=10_000, propagation_ms=0))
        # Packet A offered at t=0.1 held 0.4 s, packet B offered at
        # t=0.3 held 0.2 s: both release at exactly t=0.5.
        faulty.add_delay_window(0.0, 0.2, 0.4)
        faulty.add_delay_window(0.2, 0.4, 0.2)
        received = collect(faulty)
        sim.schedule_at(0.1, lambda: faulty.send(Packet(payload="A", size_bytes=100)))
        sim.schedule_at(0.3, lambda: faulty.send(Packet(payload="B", size_bytes=100)))
        sim.run_until(2.0)
        assert [p.payload for p, _ in received] == ["A", "B"]

    def test_equal_release_order_is_replay_stable(self):
        def run_once():
            sim = Simulator()
            faulty = FaultyLink(
                sim, Link(sim, bandwidth_kbps=10_000, propagation_ms=0)
            )
            faulty.add_delay_window(0.0, 1.0, 0.25)
            received = collect(faulty)
            for k in range(8):
                payload = k
                sim.schedule_at(
                    0.5,
                    lambda p=payload: faulty.send(
                        Packet(payload=p, size_bytes=100)
                    ),
                )
            sim.run_until(5.0)
            return [p.payload for p, _ in received]

        first, second = run_once(), run_once()
        assert first == list(range(8))
        assert first == second

    def test_overlapping_windows_compound(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=10_000, propagation_ms=0))
        faulty.add_delay_window(0.0, 1.0, 0.3)
        faulty.add_delay_window(0.0, 1.0, 0.2)
        assert faulty.delay_at(0.5) == pytest.approx(0.5)
        assert faulty.delay_at(1.5) is None

    def test_rejects_bad_delay_window(self):
        sim = Simulator()
        faulty = FaultyLink(sim, Link(sim, bandwidth_kbps=1000))
        with pytest.raises(ValueError):
            faulty.add_delay_window(2.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            faulty.add_delay_window(1.0, 2.0, -0.1)
