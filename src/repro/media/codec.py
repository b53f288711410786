"""Synthetic simulcast encoder and its CPU cost model.

The GSO controller never touches pixels: what matters is that a publisher
emits one RTP stream per configured resolution at the configured bitrate,
with keyframes, packetization, and a CPU cost that scales with the encoding
work.  This module provides exactly that:

* :class:`SimulcastEncoder` — turns source frame ticks into
  :class:`EncodedFrame` objects per active encoding, sized so the stream
  averages its target bitrate (keyframes cost a configurable multiple);
* :func:`packetize` — splits a frame into MTU-sized RTP packets with
  shared timestamp and a marker on the last packet (RFC 3550 video
  convention);
* :class:`CpuModel` — per-frame encode/decode cycle costs by resolution
  and bitrate, used to reproduce Fig. 9's CPU comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from ..core.types import Resolution
from ..rtp.packet import VIDEO_CLOCK_HZ, RtpPacket

#: Maximum RTP payload bytes per packet (typical 1200-byte MTU budget).
MTU_PAYLOAD_BYTES = 1200

#: A keyframe is this many times larger than a delta frame.  Real-time
#: encoders constrain keyframe sizes on constrained links; 4x matches a
#: rate-controlled H.264 intra frame better than an unconstrained one.
KEYFRAME_SIZE_FACTOR = 4.0


@dataclass(frozen=True)
class EncodedFrame:
    """One encoded video frame of one simulcast encoding."""

    resolution: Resolution
    frame_index: int
    size_bytes: int
    is_keyframe: bool
    capture_time_s: float


@dataclass
class EncoderStats:
    """Accumulated encoder-side accounting."""

    frames_encoded: int = 0
    bytes_encoded: int = 0
    keyframes: int = 0


class SimulcastEncoder:
    """Parallel encodings of one source, reconfigurable at runtime.

    The active configuration is a mapping resolution -> target kbps; GSO
    feedback (TMMBR) rewrites it via :meth:`configure`.  Frame sizes are
    deterministic: delta frames are sized so that, with the periodic
    keyframes included, the long-run average rate equals the target.

    Args:
        fps: source frame cadence (frame sizes derive from it).
        keyframe_interval_s: keyframe period per encoding.
    """

    def __init__(self, fps: float = 30.0, keyframe_interval_s: float = 4.0) -> None:
        if fps <= 0:
            raise ValueError("fps must be positive")
        if keyframe_interval_s <= 0:
            raise ValueError("keyframe interval must be positive")
        self.fps = fps
        self.keyframe_interval_frames = max(1, round(keyframe_interval_s * fps))
        self._targets: Dict[Resolution, int] = {}
        self._frames_since_key: Dict[Resolution, int] = {}
        self._forced_key: set = set()
        self.stats = EncoderStats()

    # ------------------------------------------------------------------ #
    # Configuration (the TMMBR execution point)
    # ------------------------------------------------------------------ #

    def configure(self, targets: Mapping[Resolution, int]) -> None:
        """Set the active encodings; resolutions absent are stopped.

        A target of 0 kbps also stops that encoding (the TMMBR
        zero-mantissa convention).  Keyframe cadences of concurrent
        encodings are phase-staggered so their 6x-sized keyframes never
        land on the same frame tick (which would burst the uplink).
        """
        new_targets = {
            res: kbps for res, kbps in targets.items() if kbps > 0
        }
        for res in new_targets:
            if res not in self._targets:
                # A newly (re)started encoding leads with a keyframe, then
                # settles onto a per-resolution phase offset.
                self._forced_key.add(res)
                stagger = (
                    sorted(new_targets).index(res)
                    * self.keyframe_interval_frames
                    // max(1, len(new_targets))
                )
                self._frames_since_key[res] = stagger
        for res in list(self._frames_since_key):
            if res not in new_targets:
                del self._frames_since_key[res]
                self._forced_key.discard(res)
        self._targets = new_targets

    def set_bitrate(self, resolution: Resolution, kbps: int) -> None:
        """Adjust (or stop, with 0) a single encoding."""
        targets = dict(self._targets)
        if kbps > 0:
            targets[resolution] = kbps
        else:
            targets.pop(resolution, None)
        self.configure(targets)

    @property
    def active_encodings(self) -> Dict[Resolution, int]:
        """The current resolution -> kbps configuration."""
        return dict(self._targets)

    @property
    def total_target_kbps(self) -> int:
        """Sum of all active encodings' target bitrates."""
        return sum(self._targets.values())

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def delta_frame_bytes(self, kbps: int) -> int:
        """Size of a delta frame such that the stream averages ``kbps``.

        With one keyframe (K x larger) every N frames the average frame
        carries ``(N - 1 + K) / N`` delta-frame budgets, so delta frames
        shrink accordingly.
        """
        n = self.keyframe_interval_frames
        bytes_per_frame_avg = kbps * 1000.0 / 8.0 / self.fps
        return max(1, round(bytes_per_frame_avg * n / (n - 1 + KEYFRAME_SIZE_FACTOR)))

    def encode(self, frame_index: int, now_s: float) -> List[EncodedFrame]:
        """Encode one source tick into frames for every active encoding."""
        frames: List[EncodedFrame] = []
        for res in sorted(self._targets, reverse=True):
            kbps = self._targets[res]
            since = self._frames_since_key.get(res, 0) + 1
            is_key = (
                since >= self.keyframe_interval_frames
                or res in self._forced_key
            )
            self._forced_key.discard(res)
            self._frames_since_key[res] = 0 if is_key else since
            base = self.delta_frame_bytes(kbps)
            size = round(base * KEYFRAME_SIZE_FACTOR) if is_key else base
            frames.append(
                EncodedFrame(
                    resolution=res,
                    frame_index=frame_index,
                    size_bytes=size,
                    is_keyframe=is_key,
                    capture_time_s=now_s,
                )
            )
            self.stats.frames_encoded += 1
            self.stats.bytes_encoded += size
            if is_key:
                self.stats.keyframes += 1
        return frames

    def request_keyframe(self, resolution: Resolution) -> None:
        """Force the next frame of one encoding to be a keyframe (used by
        the SFU when switching a subscriber onto this stream)."""
        if resolution in self._targets:
            self._forced_key.add(resolution)


def packetize(
    frame: EncodedFrame,
    ssrc: int,
    seq_start: int,
    payload_type: int = 96,
) -> List[RtpPacket]:
    """Split an encoded frame into RTP packets.

    All packets share the frame's RTP timestamp (90 kHz clock); the last
    packet carries the marker bit.  Payload bytes are synthetic zeros of
    the right length — receivers account sizes, not content.
    """
    timestamp = int(frame.capture_time_s * VIDEO_CLOCK_HZ) % 2**32
    remaining = frame.size_bytes
    packets: List[RtpPacket] = []
    seq = seq_start
    while remaining > 0:
        chunk = min(remaining, MTU_PAYLOAD_BYTES)
        remaining -= chunk
        packets.append(
            RtpPacket(
                ssrc=ssrc,
                seq=seq % 2**16,
                timestamp=timestamp,
                payload_type=payload_type,
                marker=(remaining == 0),
                payload=bytes(chunk),
            )
        )
        seq += 1
    return packets


@dataclass(frozen=True)
class CpuModel:
    """Per-frame CPU cost model (mega-cycles), reproducing Fig. 9's units.

    Encoding cost grows with pixel count and mildly with bitrate; decoding
    costs a fraction of encoding.  The absolute scale is calibrated so a
    single 720p30 encode lands near the ~15 % utilization a Huawei-P30-
    class SoC exhibits; only the GSO-vs-non-GSO *delta* matters for the
    reproduction.
    """

    #: Mega-cycles to encode one 720p delta frame at the reference bitrate.
    encode_ref_mcycles: float = 6.0
    #: Decode cost relative to encode cost at equal resolution.
    decode_ratio: float = 0.35
    #: Extra encode cost per doubling of bitrate over the reference.
    bitrate_exponent: float = 0.20
    #: Reference bitrate for the 720p encode cost.
    ref_kbps: float = 1500.0
    #: Device budget in mega-cycles per second (a mid-range mobile SoC).
    device_mcycles_per_s: float = 2_000.0

    def encode_frame_mcycles(self, resolution: Resolution, kbps: float) -> float:
        """Mega-cycles to encode one frame at (resolution, kbps)."""
        pixel_scale = resolution.pixels / Resolution.P720.pixels
        rate_scale = max(kbps / self.ref_kbps, 0.05) ** self.bitrate_exponent
        return self.encode_ref_mcycles * pixel_scale * rate_scale

    def decode_frame_mcycles(self, resolution: Resolution, kbps: float) -> float:
        """Mega-cycles to decode one frame at (resolution, kbps)."""
        return self.decode_ratio * self.encode_frame_mcycles(resolution, kbps)

    def encode_utilization(
        self, encodings: Mapping[Resolution, int], fps: float
    ) -> float:
        """Fraction of the device budget spent encoding ``encodings``."""
        per_second = sum(
            self.encode_frame_mcycles(res, kbps) * fps
            for res, kbps in encodings.items()
        )
        return per_second / self.device_mcycles_per_s
