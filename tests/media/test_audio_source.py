"""Unit tests for the audio model and the video source."""

import pytest

from repro.media.audio import AUDIO_BITRATE_KBPS, AudioReceiver, AudioSender
from repro.media.source import SourceConfig, VideoSource
from repro.net.simulator import Simulator
from repro.rtp.packet import AUDIO_PAYLOAD_TYPE, RtpPacket


class TestAudioSender:
    def make(self):
        sim = Simulator()
        sent = []
        sender = AudioSender(sim, ssrc=0x20, send=sent.append)
        return sim, sent, sender

    def test_packet_cadence_is_50pps(self):
        sim, sent, sender = self.make()
        sender.start()
        sim.run_until(2.0)
        assert 95 <= len(sent) <= 105

    def test_rate_matches_nominal_bitrate(self):
        sim, sent, sender = self.make()
        sender.start()
        sim.run_until(5.0)
        payload_bits = sum(len(p.payload) * 8 for p in sent)
        assert payload_bits / 5.0 / 1000 == pytest.approx(
            AUDIO_BITRATE_KBPS, rel=0.05
        )

    def test_packets_are_audio_rtp(self):
        sim, sent, sender = self.make()
        sender.start()
        sim.run_until(0.1)
        assert all(p.payload_type == AUDIO_PAYLOAD_TYPE for p in sent)
        assert all(p.ssrc == 0x20 for p in sent)
        seqs = [p.seq for p in sent]
        assert seqs == sorted(seqs)

    def test_stop_halts_production(self):
        sim, sent, sender = self.make()
        sender.start()
        sim.run_until(0.5)
        sender.stop()
        count = len(sent)
        sim.run_until(1.5)
        assert len(sent) == count

    def test_start_is_idempotent(self):
        sim, sent, sender = self.make()
        sender.start()
        sender.start()
        sim.run_until(1.0)
        assert len(sent) <= 52  # not doubled


class TestAudioReceiver:
    def feed(self, receiver, interval, fraction):
        """Deliver `fraction` of one second's packets into `interval`."""
        expected = round(1.0 / 0.020)
        for k in range(int(expected * fraction)):
            packet = RtpPacket(
                ssrc=1,
                seq=k,
                timestamp=0,
                payload_type=AUDIO_PAYLOAD_TYPE,
                payload=bytes(80),
            )
            receiver.on_packet(packet, now_s=interval + k * 0.02 * fraction)

    def test_full_delivery_no_stall(self):
        rx = AudioReceiver()
        for interval in range(5):
            self.feed(rx, interval, 1.0)
        assert rx.voice_stall_rate(0.0, 5.0) == 0.0

    def test_heavy_loss_counts_as_stall(self):
        rx = AudioReceiver()
        for interval in range(5):
            self.feed(rx, interval, 0.5)  # 50% loss > 10% threshold
        assert rx.voice_stall_rate(0.0, 5.0) == 1.0

    def test_mild_loss_below_threshold_ok(self):
        rx = AudioReceiver()
        for interval in range(5):
            self.feed(rx, interval, 0.95)  # 5% loss < 10%
        assert rx.voice_stall_rate(0.0, 5.0) == 0.0

    def test_mixed_intervals(self):
        rx = AudioReceiver()
        self.feed(rx, 0, 1.0)
        self.feed(rx, 1, 0.3)
        self.feed(rx, 2, 1.0)
        assert rx.voice_stall_rate(0.0, 3.0) == pytest.approx(1 / 3)

    def test_empty_window(self):
        rx = AudioReceiver()
        assert rx.voice_stall_rate(3.0, 3.0) == 0.0


class TestVideoSource:
    def test_frame_cadence(self):
        sim = Simulator()
        frames = []
        source = VideoSource(sim, SourceConfig(fps=30.0), frames.append)
        source.start()
        sim.run_until(2.0)
        assert 59 <= len(frames) <= 62
        assert frames[:3] == [0, 1, 2]

    def test_stop_and_counter(self):
        sim = Simulator()
        frames = []
        source = VideoSource(sim, SourceConfig(fps=10.0), frames.append)
        source.start()
        sim.run_until(1.0)
        source.stop()
        sim.run_until(3.0)
        assert source.frames_produced == len(frames)
        assert source.frames_produced <= 11

    def test_start_offset(self):
        sim = Simulator()
        times = []
        source = VideoSource(
            sim, SourceConfig(fps=10.0), lambda k: times.append(sim.now)
        )
        source.start(offset_s=0.5)
        sim.run_until(1.0)
        assert times[0] == pytest.approx(0.5)

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            SourceConfig(fps=0)
