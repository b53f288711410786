"""RTCP packet wire formats (RFC 3550 §6, RFC 4585 framing).

The reproduction uses three RTCP packet types:

* **Receiver Report (RR, PT=201)** — loss fraction and jitter feedback from
  receivers (drives the loss-based part of bandwidth estimation);
* **APP (PT=204)** — the paper's extension vehicle: both the SEMB uplink
  bandwidth report (Sec. 4.2) and the GSO TMMBR stream-configuration
  feedback (Sec. 4.3) travel as application-defined packets;
* **Transport-layer FB (RTPFB, PT=205)** — transport-wide congestion
  control feedback (Sec. 7 mentions TWCC), serialized in a simplified but
  byte-real layout.

All packets share the RTCP common header::

       0 1 2 3 4 5 6 7 8 9 ...
      +-+-+-+-+-+-+-+-+-+-+-+-+
      |V=2|P| RC/FMT  |   PT  |      length (32-bit words - 1)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

RTCP_VERSION = 2

#: RTCP packet types.
PT_SR = 200
PT_RR = 201
PT_SDES = 202
PT_BYE = 203
PT_APP = 204
PT_RTPFB = 205
PT_PSFB = 206

#: The common header's three fields, read in place by
#: :func:`parse_common_header`.
_HEADER = struct.Struct("!BBH")


def _common_header(count_or_fmt: int, packet_type: int, body_len: int) -> bytes:
    """The 4-byte RTCP common header for a body of ``body_len`` bytes."""
    if body_len % 4 != 0:
        raise ValueError(f"RTCP body must be 32-bit aligned, got {body_len}")
    length_words = body_len // 4
    byte0 = (RTCP_VERSION << 6) | (count_or_fmt & 0x1F)
    return struct.pack("!BBH", byte0, packet_type, length_words)


def parse_common_header(data: bytes, offset: int = 0) -> Tuple[int, int, int]:
    """Parse the RTCP common header at ``offset`` of ``data``, without
    copying the bytes after it.

    Returns:
        (count_or_fmt, packet_type, total_packet_len_bytes).
    """
    if len(data) - offset < 4:
        raise ValueError("RTCP packet too short")
    byte0, packet_type, length_words = _HEADER.unpack_from(data, offset)
    if byte0 >> 6 != RTCP_VERSION:
        raise ValueError(f"unsupported RTCP version {byte0 >> 6}")
    return byte0 & 0x1F, packet_type, 4 * (length_words + 1)


@dataclass(frozen=True)
class ReportBlock:
    """One RR report block (RFC 3550 §6.4.1)."""

    ssrc: int
    fraction_lost: int  # 0..255, fixed-point fraction of packets lost
    cumulative_lost: int
    highest_seq: int
    jitter: int

    def serialize(self) -> bytes:
        """Encode to the 24-byte RFC 3550 layout that :meth:`parse` reads
        (LSR and DLSR are zero: the simulation sends no sender reports)."""
        lost24 = self.cumulative_lost & 0xFFFFFF
        return struct.pack(
            "!IIIIII",
            self.ssrc,
            ((self.fraction_lost & 0xFF) << 24) | lost24,
            self.highest_seq,
            self.jitter,
            0,
            0,
        )

    @classmethod
    def parse(cls, data: bytes) -> "ReportBlock":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        if len(data) < 24:
            raise ValueError("report block too short")
        ssrc, frac_lost_word, highest_seq, jitter, _lsr, _dlsr = struct.unpack(
            "!IIIIII", data[:24]
        )
        return cls(
            ssrc=ssrc,
            fraction_lost=frac_lost_word >> 24,
            cumulative_lost=frac_lost_word & 0xFFFFFF,
            highest_seq=highest_seq,
            jitter=jitter,
        )


@dataclass(frozen=True)
class ReceiverReport:
    """An RR packet with zero or more report blocks."""

    sender_ssrc: int
    blocks: Tuple[ReportBlock, ...] = ()

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        body = struct.pack("!I", self.sender_ssrc) + b"".join(
            block.serialize() for block in self.blocks
        )
        return _common_header(len(self.blocks), PT_RR, len(body)) + body

    @classmethod
    def parse(cls, data: bytes) -> "ReceiverReport":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        count, packet_type, total = parse_common_header(data)
        if packet_type != PT_RR:
            raise ValueError(f"not an RR packet (PT={packet_type})")
        if len(data) < total or total < 8:
            raise ValueError("RR packet truncated")
        sender_ssrc = struct.unpack("!I", data[4:8])[0]
        blocks: List[ReportBlock] = []
        offset = 8
        for _ in range(count):
            blocks.append(ReportBlock.parse(data[offset : offset + 24]))
            offset += 24
        return cls(sender_ssrc=sender_ssrc, blocks=tuple(blocks))


@dataclass(frozen=True)
class AppPacket:
    """An application-defined RTCP packet (PT=204, RFC 3550 §6.7).

    The paper uses APP packets for both SEMB reports and GSO stream
    feedback; the 4-character ``name`` disambiguates them, and ``subtype``
    is available for versioning.
    """

    subtype: int
    ssrc: int
    name: bytes  # exactly 4 ASCII bytes
    data: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.subtype < 32:
            raise ValueError(f"APP subtype out of range: {self.subtype}")
        if len(self.name) != 4:
            raise ValueError(f"APP name must be 4 bytes, got {self.name!r}")
        if len(self.data) % 4 != 0:
            raise ValueError("APP data must be 32-bit aligned")

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        body = struct.pack("!I", self.ssrc) + self.name + self.data
        return _common_header(self.subtype, PT_APP, len(body)) + body

    @classmethod
    def parse(cls, data: bytes) -> "AppPacket":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        subtype, packet_type, total = parse_common_header(data)
        if packet_type != PT_APP:
            raise ValueError(f"not an APP packet (PT={packet_type})")
        if len(data) < total or total < 12:
            raise ValueError("APP packet truncated")
        ssrc = struct.unpack("!I", data[4:8])[0]
        return cls(
            subtype=subtype,
            ssrc=ssrc,
            name=data[8:12],
            data=data[12:total],
        )


@dataclass(frozen=True)
class TwccFeedback:
    """Simplified transport-wide congestion control feedback (PT=205, FMT=15).

    The real TWCC wire format (packet status chunks, receive deltas) is
    substituted by an explicit (seq, arrival_time_us) list — byte-real and
    parseable, carrying the same information content the GCC estimator
    needs, without the chunk-encoding bookkeeping that is irrelevant to the
    paper's contribution.
    """

    sender_ssrc: int
    base_seq: int
    arrivals: Tuple[Tuple[int, int], ...]  # (seq, arrival_time_us); -1 = lost

    FMT = 15

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        body = struct.pack(
            "!IHH", self.sender_ssrc, self.base_seq, len(self.arrivals)
        )
        for seq, arrival_us in self.arrivals:
            body += struct.pack("!Hhi", seq, 0, arrival_us)
        return _common_header(self.FMT, PT_RTPFB, len(body)) + body

    @classmethod
    def parse(cls, data: bytes) -> "TwccFeedback":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        fmt, packet_type, total = parse_common_header(data)
        if packet_type != PT_RTPFB or fmt != cls.FMT:
            raise ValueError("not a TWCC feedback packet")
        if len(data) < total or total < 12:
            raise ValueError("TWCC feedback truncated")
        sender_ssrc, base_seq, n = struct.unpack("!IHH", data[4:12])
        if total < 12 + 8 * n:
            raise ValueError("TWCC arrival list truncated")
        arrivals: List[Tuple[int, int]] = []
        offset = 12
        for _ in range(n):
            seq, _pad, arrival_us = struct.unpack(
                "!Hhi", data[offset : offset + 8]
            )
            arrivals.append((seq, arrival_us))
            offset += 8
        return cls(sender_ssrc=sender_ssrc, base_seq=base_seq, arrivals=tuple(arrivals))


def parse_compound(data: bytes) -> List[bytes]:
    """Split a compound RTCP datagram into individual packet byte strings."""
    packets: List[bytes] = []
    offset = 0
    while offset < len(data):
        _, _, total = parse_common_header(data, offset)
        if offset + total > len(data):
            raise ValueError("compound RTCP truncated")
        packets.append(data[offset : offset + total])
        offset += total
    return packets
