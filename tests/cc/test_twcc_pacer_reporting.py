"""Unit tests for TWCC bookkeeping, the pacer, and report scheduling."""

import pytest

from repro.cc.pacer import Pacer, PacerConfig
from repro.cc.reporting import ReportScheduler, ReportSchedulerConfig
from repro.cc.twcc import TwccReceiver, TwccSender
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.rtp.rtcp import TwccFeedback


class TestTwccSender:
    def test_sequences_increase(self):
        tx = TwccSender()
        assert tx.register_send(100, 0.0) == 0
        assert tx.register_send(100, 0.1) == 1

    def test_feedback_matching(self):
        tx = TwccSender()
        s0 = tx.register_send(500, 0.0)
        s1 = tx.register_send(500, 0.01)
        fb = TwccFeedback(
            sender_ssrc=1,
            base_seq=s0,
            arrivals=((s0, 30_000), (s1, 45_000)),
        )
        samples = tx.on_feedback(fb)
        assert len(samples) == 2
        assert samples[0].send_time_s == 0.0
        assert samples[0].arrival_time_s == pytest.approx(0.030)
        assert tx.acked_reported == 2

    def test_lost_packets_counted(self):
        tx = TwccSender()
        s0 = tx.register_send(500, 0.0)
        s1 = tx.register_send(500, 0.01)
        fb = TwccFeedback(1, s0, ((s0, 30_000), (s1, -1)))
        samples = tx.on_feedback(fb)
        assert len(samples) == 1
        assert tx.lost_reported == 1
        assert tx.loss_fraction() == pytest.approx(0.5)

    def test_unknown_seq_ignored(self):
        tx = TwccSender()
        fb = TwccFeedback(1, 100, ((100, 30_000),))
        assert tx.on_feedback(fb) == []

    def test_history_bounded(self):
        tx = TwccSender(history_limit=100)
        for k in range(250):
            tx.register_send(100, k * 0.001)
        assert len(tx._history) <= 100 + 1

    def test_loss_fraction_zero_when_no_reports(self):
        assert TwccSender().loss_fraction() == 0.0


class TestTwccReceiver:
    def test_batches_arrivals(self):
        rx = TwccReceiver(sender_ssrc=7)
        rx.on_packet(0, 0.010)
        rx.on_packet(1, 0.020)
        fb = rx.build_feedback()
        assert fb is not None
        assert fb.sender_ssrc == 7
        assert fb.arrivals == ((0, 10_000), (1, 20_000))
        assert rx.build_feedback() is None  # drained

    def test_gaps_reported_as_losses(self):
        rx = TwccReceiver()
        rx.on_packet(0, 0.01)
        rx.on_packet(3, 0.02)  # 1 and 2 missing
        fb = rx.build_feedback()
        seqs = dict(fb.arrivals)
        assert seqs[1] == -1 and seqs[2] == -1
        assert seqs[3] == 20_000

    def test_arrivals_past_the_32_bit_wrap(self):
        # int(t * 1e6) leaves the signed 32-bit field at t = 2,147.48 s.
        tx, rx = TwccSender(), TwccReceiver()
        arrivals = []
        for k in range(41):
            now = 2147.0 + 0.05 * k  # 2,147 s -> 2,149 s
            seq = tx.register_send(1200, now - 0.03)
            rx.on_packet(seq, now)
            if k % 10 == 9:
                fb = TwccFeedback.parse(rx.build_feedback().serialize())
                arrivals += [s.arrival_time_s for s in tx.on_feedback(fb)]
        assert len(arrivals) == 40
        assert arrivals == sorted(set(arrivals))
        assert arrivals[-1] == pytest.approx(2147.0 + 0.05 * 39)

    def test_a_lost_packet_past_the_wrap_stays_lost(self):
        tx, rx = TwccSender(), TwccReceiver()
        for now in (2148.0, 2148.1, 2148.2):
            tx.register_send(1200, now - 0.03)
        rx.on_packet(0, 2148.0)
        rx.on_packet(2, 2148.2)  # seq 1 never arrived
        fb = rx.build_feedback()
        assert fb.arrivals[1] == (1, -1)
        samples = tx.on_feedback(fb)
        assert [s.arrival_time_s for s in samples] == [
            pytest.approx(2148.0), pytest.approx(2148.2)
        ]
        assert tx.lost_reported == 1

    @pytest.mark.parametrize(
        "start", [0.0, 2147.45, 3000.0, 4294.95, 10_000.0]
    )
    def test_a_sender_unwraps_arrivals_in_every_period(self, start):
        # A sender that starts past a wrap places its first arrival too.
        tx, rx = TwccSender(), TwccReceiver()
        times = [start + 0.02 * k for k in range(6)]
        for now in times:
            rx.on_packet(tx.register_send(1200, now - 0.03), now)
        fb = TwccFeedback.parse(rx.build_feedback().serialize())
        samples = tx.on_feedback(fb)
        assert [s.arrival_time_s for s in samples] == [
            pytest.approx(now, abs=1e-6) for now in times
        ]

    def test_below_the_wrap_the_wire_carries_absolute_microseconds(self):
        rx = TwccReceiver()
        times = [0.0, 1.5, 2147.0, 2147.483647]
        for seq, now in enumerate(times):
            rx.on_packet(seq, now)
        fb = rx.build_feedback()
        assert [us for _, us in fb.arrivals] == [int(t * 1e6) for t in times]


class TestPacer:
    def make(self, target=1000, **cfg):
        self.sim = Simulator()
        self.sent = []
        pacer = Pacer(
            self.sim,
            send=self.sent.append,
            target_kbps=target,
            config=PacerConfig(**cfg) if cfg else None,
        )
        return pacer

    def pkt(self, size=1000):
        return Packet(payload=b"", size_bytes=size)

    def test_first_packet_sends_immediately(self):
        pacer = self.make()
        pacer.enqueue(self.pkt())
        self.sim.run_until(0.0)
        assert len(self.sent) == 1

    def test_pacing_spreads_packets(self):
        pacer = self.make(target=1000)  # paced at 1.5 Mbps
        for _ in range(4):
            pacer.enqueue(self.pkt(1000))  # 8000 bits each
        self.sim.run_until(0.001)
        early = len(self.sent)
        self.sim.run_until(1.0)
        assert early < 4
        assert len(self.sent) == 4

    def test_rate_change_affects_gap(self):
        pacer = self.make(target=1000)
        pacer.set_target_kbps(100)
        for _ in range(3):
            pacer.enqueue(self.pkt(1000))
        self.sim.run_until(0.01)
        assert len(self.sent) == 1  # 53 ms gaps at 150 kbps pace rate
        self.sim.run_until(1.0)
        assert len(self.sent) == 3

    def test_rejects_bad_rate(self):
        pacer = self.make()
        with pytest.raises(ValueError):
            pacer.set_target_kbps(0)

    def test_probe_cluster_sends_n_packets(self):
        pacer = self.make(probe_packets=5)
        launched = pacer.maybe_probe(
            1000, make_probe=lambda k: self.pkt(500)
        )
        assert launched
        self.sim.run_until(1.0)
        assert pacer.sent_probe_packets == 5

    def test_probe_redundancy_is_limited(self):
        pacer = self.make(probe_min_interval_s=5.0)
        assert pacer.maybe_probe(1000, lambda k: self.pkt())
        assert not pacer.maybe_probe(1000, lambda k: self.pkt())
        self.sim.run_until(6.0)
        assert pacer.maybe_probe(1000, lambda k: self.pkt())


class TestReportScheduler:
    def test_first_measurement_reports(self):
        sched = ReportScheduler()
        assert sched.should_report(0.0, 1000)

    def test_time_trigger(self):
        sched = ReportScheduler(ReportSchedulerConfig(period_s=1.0))
        sched.should_report(0.0, 1000)
        assert not sched.should_report(0.5, 1010)
        assert sched.should_report(1.1, 1010)

    def test_event_trigger_on_significant_change(self):
        sched = ReportScheduler(
            ReportSchedulerConfig(period_s=10.0, significant_change=0.10)
        )
        sched.should_report(0.0, 1000)
        assert not sched.should_report(0.5, 1050)  # +5%
        assert sched.should_report(0.6, 800)  # -20%

    def test_min_spacing_floor(self):
        sched = ReportScheduler(
            ReportSchedulerConfig(min_spacing_s=0.2, significant_change=0.01)
        )
        sched.should_report(0.0, 1000)
        assert not sched.should_report(0.1, 1)  # huge change but too soon

    def test_counters(self):
        sched = ReportScheduler()
        sched.should_report(0.0, 1000)
        sched.should_report(0.3, 1001)
        assert sched.reports_sent == 1
        assert sched.reports_suppressed == 1
        assert sched.last_reported_kbps == 1000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReportSchedulerConfig(period_s=0)
        with pytest.raises(ValueError):
            ReportSchedulerConfig(significant_change=0)
        with pytest.raises(ValueError):
            ReportSchedulerConfig(min_spacing_s=2.0, period_s=1.0)
