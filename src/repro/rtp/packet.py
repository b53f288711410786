"""RTP packet wire format (RFC 3550 §5.1 + RFC 8285 header extension).

Simulcast sub-streams are distinguished purely by SSRC (the paper assigns
one SSRC per stream resolution, Sec. 4.2).  Payload bytes are synthetic —
the simulation never decodes video — but sizes, sequence numbers,
timestamps, marker bits and the transport-wide-CC sequence extension are
all real, so the receive path (jitter buffer, loss accounting, TWCC)
behaves faithfully.

The only header extension implemented is the transport-wide congestion
control sequence number (draft-holmer-rmcat-transport-wide-cc-extensions,
cited by the paper in Sec. 7), carried as RFC 8285 one-byte-header element
id 1.  Like a real SFU, the accessing node rewrites this extension
per-transport when forwarding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from .rtcp import _decoded

#: RTP version used by everything since RFC 3550.
RTP_VERSION = 2

#: Fixed header length without CSRCs.
RTP_HEADER_LEN = 12

#: Dynamic payload type used for the synthetic video codec.
VIDEO_PAYLOAD_TYPE = 96

#: Dynamic payload type used for audio (Opus-like).
AUDIO_PAYLOAD_TYPE = 111

#: RTP timestamp clock rate for video (RFC 3551 convention).
VIDEO_CLOCK_HZ = 90_000

#: RTP timestamp clock rate for audio.
AUDIO_CLOCK_HZ = 48_000

#: RFC 8285 one-byte-header extension profile marker.
_ONE_BYTE_PROFILE = 0xBEDE

#: Extension element id carrying the TWCC sequence number.
_TWCC_EXT_ID = 1

#: The fixed header: V/P/X/CC, M/PT, seq, timestamp, SSRC.
_HEADER = struct.Struct("!BBHII")
#: The fixed header plus the one-word TWCC extension block
#: (profile, length 1, element [id=1|len=1][seq][pad]).
_HEADER_TWCC = struct.Struct("!BBHIIHHBHB")
_EXT_HEADER = struct.Struct("!HH")
_U16 = struct.Struct("!H")


@dataclass(frozen=True)
class RtpPacket:
    """A parsed/serializable RTP packet.

    Attributes:
        ssrc: synchronization source; one per (publisher, resolution).
        seq: 16-bit sequence number (wraps).
        timestamp: 32-bit media timestamp (wraps).
        payload_type: 7-bit PT.
        marker: set on the last packet of a video frame.
        payload: media bytes (synthetic).
        twcc_seq: transport-wide CC sequence number, or None when the
            extension is absent.  Rewritten hop-by-hop by the SFU.
    """

    ssrc: int
    seq: int
    timestamp: int
    payload_type: int = VIDEO_PAYLOAD_TYPE
    marker: bool = False
    payload: bytes = b""
    twcc_seq: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.ssrc < 2**32:
            raise ValueError(f"ssrc out of range: {self.ssrc}")
        if not 0 <= self.seq < 2**16:
            raise ValueError(f"seq out of range: {self.seq}")
        if not 0 <= self.timestamp < 2**32:
            raise ValueError(f"timestamp out of range: {self.timestamp}")
        if not 0 <= self.payload_type < 2**7:
            raise ValueError(f"payload_type out of range: {self.payload_type}")
        if self.twcc_seq is not None and not 0 <= self.twcc_seq < 2**16:
            raise ValueError(f"twcc_seq out of range: {self.twcc_seq}")

    def serialize(self) -> bytes:
        """Encode to wire bytes (fixed header [+ extension] + payload)."""
        byte1 = (0x80 if self.marker else 0) | self.payload_type
        if self.twcc_seq is None:
            header = _HEADER.pack(
                RTP_VERSION << 6, byte1, self.seq, self.timestamp, self.ssrc
            )
        else:
            header = _HEADER_TWCC.pack(
                (RTP_VERSION << 6) | 0x10,  # P=0, X=1, CC=0
                byte1,
                self.seq,
                self.timestamp,
                self.ssrc,
                _ONE_BYTE_PROFILE,
                1,
                (_TWCC_EXT_ID << 4) | 0x01,
                self.twcc_seq,
                0,
            )
        return header + self.payload

    @property
    def wire_size(self) -> int:
        """Serialized size in bytes."""
        ext = 8 if self.twcc_seq is not None else 0
        return RTP_HEADER_LEN + ext + len(self.payload)

    def with_twcc_seq(self, twcc_seq: Optional[int]) -> "RtpPacket":
        """A copy with the transport-wide sequence rewritten (SFU hop)."""
        return RtpPacket(
            ssrc=self.ssrc,
            seq=self.seq,
            timestamp=self.timestamp,
            payload_type=self.payload_type,
            marker=self.marker,
            payload=self.payload,
            twcc_seq=twcc_seq,
        )

    @classmethod
    def parse(cls, data: bytes) -> "RtpPacket":
        """Decode wire bytes.

        Raises:
            ValueError: on truncated input or wrong RTP version.
        """
        if len(data) < RTP_HEADER_LEN:
            raise ValueError(f"RTP packet too short: {len(data)} bytes")
        byte0, byte1, seq, timestamp, ssrc = _HEADER.unpack_from(data)
        version = byte0 >> 6
        if version != RTP_VERSION:
            raise ValueError(f"unsupported RTP version {version}")
        has_ext = bool((byte0 >> 4) & 1)
        cc = byte0 & 0x0F
        offset = RTP_HEADER_LEN + 4 * cc
        twcc_seq: Optional[int] = None
        if has_ext:
            if len(data) < offset + 4:
                raise ValueError("RTP packet truncated in extension header")
            profile, length_words = _EXT_HEADER.unpack_from(data, offset)
            ext_start = offset + 4
            ext_end = ext_start + 4 * length_words
            if len(data) < ext_end:
                raise ValueError("RTP packet truncated in extension body")
            if profile == _ONE_BYTE_PROFILE:
                pos = ext_start
                while pos < ext_end:
                    header = data[pos]
                    if header == 0:  # padding
                        pos += 1
                        continue
                    ext_id = header >> 4
                    ext_len = (header & 0x0F) + 1
                    if pos + 1 + ext_len > ext_end:
                        raise ValueError("RTP extension element overruns its block")
                    if ext_id == _TWCC_EXT_ID and ext_len == 2:
                        twcc_seq = _U16.unpack_from(data, pos + 1)[0]
                    pos += 1 + ext_len
            offset = ext_end
        if len(data) < offset:
            raise ValueError("RTP packet truncated")
        return _decoded(
            cls,
            ssrc=ssrc,
            seq=seq,
            timestamp=timestamp,
            payload_type=byte1 & 0x7F,
            marker=bool(byte1 >> 7),
            payload=data[offset:],
            twcc_seq=twcc_seq,
        )


def seq_less_than(a: int, b: int) -> bool:
    """RFC 1982 serial-number comparison for 16-bit sequence numbers."""
    return (b - a) % 2**16 < 2**15 and a != b


def seq_distance(a: int, b: int) -> int:
    """Forward distance from ``a`` to ``b`` modulo 2^16."""
    return (b - a) % 2**16
