"""Audio stream model and the voice-stall metric.

Audio is not orchestrated by GSO (Fig. 9 shows its CPU impact is nil), but
it shares the links with video: the paper's headline voice-stall
improvement comes from video no longer congesting the path.  The audio
model is therefore deliberately simple — a constant-bitrate packet stream —
while the receiver implements the paper's metric exactly:

    "Voice stall is measured as the percentage of audio playback intervals
    whose audio packet loss is larger than 10 %." (footnote 10)
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..net.simulator import PeriodicTask, Simulator
from ..rtp.packet import AUDIO_CLOCK_HZ, AUDIO_PAYLOAD_TYPE, RtpPacket

#: Opus-like constant audio bitrate.
AUDIO_BITRATE_KBPS = 32

#: 20 ms audio frames -> 50 packets per second.
AUDIO_FRAME_S = 0.020

#: Loss fraction above which an interval counts as a voice stall.
VOICE_STALL_LOSS_THRESHOLD = 0.10

#: Voice-stall accounting interval.
VOICE_INTERVAL_S = 1.0


class AudioSender:
    """Constant-bitrate audio packet source."""

    def __init__(
        self,
        sim: Simulator,
        ssrc: int,
        send: Callable[[RtpPacket], None],
    ) -> None:
        self._sim = sim
        self._ssrc = ssrc
        self._send = send
        self._seq = 0
        self._task: Optional[PeriodicTask] = None
        self.packets_sent = 0

    @property
    def payload_bytes(self) -> int:
        """Audio payload bytes per 20 ms frame."""
        return int(AUDIO_BITRATE_KBPS * 1000 / 8 * AUDIO_FRAME_S)

    def start(self, offset_s: float = 0.0) -> None:
        """Begin producing frames (idempotent)."""
        if self._task is not None:
            return
        self._task = PeriodicTask(
            self._sim, AUDIO_FRAME_S, self._tick, start_offset=offset_s
        )

    def stop(self) -> None:
        """Stop the periodic activity (idempotent)."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _tick(self) -> None:
        packet = RtpPacket(
            ssrc=self._ssrc,
            seq=self._seq % 2**16,
            timestamp=int(self._sim.now * AUDIO_CLOCK_HZ) % 2**32,
            payload_type=AUDIO_PAYLOAD_TYPE,
            marker=False,
            payload=bytes(self.payload_bytes),
        )
        self._seq += 1
        self.packets_sent += 1
        self._send(packet)


class AudioReceiver:
    """Tracks per-interval audio loss for the voice-stall metric."""

    def __init__(self) -> None:
        #: interval index -> packets received.
        self._received: Dict[int, int] = {}
        self._expected_per_interval = round(VOICE_INTERVAL_S / AUDIO_FRAME_S)

    def on_packet(self, packet: RtpPacket, now_s: float) -> None:
        """Record one arriving packet."""
        interval = int(now_s / VOICE_INTERVAL_S)
        self._received[interval] = self._received.get(interval, 0) + 1

    def voice_stall_rate(self, window_start_s: float, window_end_s: float) -> float:
        """Fraction of intervals in the window with >10 % audio loss."""
        first = int(window_start_s / VOICE_INTERVAL_S)
        last = int(window_end_s / VOICE_INTERVAL_S)
        if last <= first:
            return 0.0
        stalled = 0
        total = 0
        for interval in range(first, last):
            total += 1
            got = self._received.get(interval, 0)
            loss = 1.0 - got / self._expected_per_interval
            if loss > VOICE_STALL_LOSS_THRESHOLD:
                stalled += 1
        return stalled / total if total else 0.0
