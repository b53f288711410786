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

**The codec idiom of** ``repro.rtp``.  Every wire layout is a
module-level ``struct.Struct`` read in place with ``unpack_from(data,
offset)`` (no slice-then-``unpack``, no per-call format string), and
every encoder builds its bytes with one ``pack`` or ``join``.  A value
object validates its fields when constructed, so an encoder raises
``ValueError``, never ``struct.error``.  A decoder checks the framing,
then builds its result with :func:`_decoded`, which skips the
constructor's re-validation of what the parser has just proved.
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

#: The longest body the 16-bit length field can frame (RFC 3550 §6.4.1).
_MAX_BODY_BYTES = 4 * 0xFFFF

#: The common header's three fields.
_HEADER = struct.Struct("!BBH")
#: One 32-bit word (an SSRC, a request id, a bitrate word).
_U32 = struct.Struct("!I")
#: ``_U32_RUNS[n]`` reads or writes ``n`` consecutive 32-bit words: an
#: 8-bit SSRC count plus the word in front of the list.
_U32_RUNS = tuple(struct.Struct(f"!{n}I") for n in range(257))
#: An APP packet up to its data: common header, SSRC, 4-byte name.
_APP_HEAD = struct.Struct("!BBHI4s")
#: An RR up to its blocks: common header, sender SSRC.
_RR_HEAD = struct.Struct("!BBHI")
_REPORT_BLOCK = struct.Struct("!IIIIII")
#: A TWCC feedback up to its arrivals: header, sender SSRC, base seq, count.
_TWCC_HEAD = struct.Struct("!BBHIHH")
_TWCC_ARRIVAL = struct.Struct("!Hhi")
#: Bound readers of the layouts every SEMB packet goes through.
_read_header = _HEADER.unpack_from
_read_app_head = _APP_HEAD.unpack_from
_read_u32 = _U32.unpack_from

_new = object.__new__
_setattr = object.__setattr__


def _decoded(cls, **fields):
    """A frozen ``cls`` holding ``fields``, built without the dataclass
    ``__init__`` and ``__post_init__``.

    Valid only where the caller has already proved every invariant the
    constructor checks: a parser that read each field off the wire at
    its width (a 5-bit subtype, a 4-byte name, 32-bit-aligned data, an
    8-bit count, a 32-bit SSRC), or an encoder wrapping fields a
    validated object already holds.  ``tests/rtp/test_fuzz.py`` re-runs
    the constructor on every decoded object to hold parsers to this.
    """
    obj = _new(cls)
    _setattr(obj, "__dict__", fields)  # ``fields`` is this call's own dict
    return obj


def _require_u32(value: int, what: str) -> None:
    if not 0 <= value < 2**32:
        raise ValueError(f"{what} out of range: {value}")


def _require_ssrc_list(ssrcs: Tuple[int, ...], what: str) -> None:
    """An SSRC list behind an 8-bit count (SEMB, REMB)."""
    if len(ssrcs) > 255:
        raise ValueError(f"a {what} covers at most 255 SSRCs, got {len(ssrcs)}")
    for ssrc in ssrcs:
        _require_u32(ssrc, "media ssrc")


def parse_common_header(data: bytes, offset: int = 0) -> Tuple[int, int, int]:
    """Parse the RTCP common header at ``offset`` of ``data``, without
    copying the bytes after it.

    Returns:
        (count_or_fmt, packet_type, total_packet_len_bytes).
    """
    if len(data) - offset < 4:
        raise ValueError("RTCP packet too short")
    byte0, packet_type, length_words = _read_header(data, offset)
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

    def __post_init__(self) -> None:
        _require_u32(self.ssrc, "report block ssrc")
        _require_u32(self.highest_seq, "highest_seq")
        _require_u32(self.jitter, "jitter")

    def serialize(self) -> bytes:
        """Encode to the 24-byte RFC 3550 layout that :meth:`parse` reads
        (LSR and DLSR are zero: the simulation sends no sender reports).
        The loss fields keep their low 8 and 24 bits."""
        return _REPORT_BLOCK.pack(
            self.ssrc,
            ((self.fraction_lost & 0xFF) << 24) | (self.cumulative_lost & 0xFFFFFF),
            self.highest_seq,
            self.jitter,
            0,
            0,
        )

    @classmethod
    def parse(cls, data: bytes, offset: int = 0) -> "ReportBlock":
        """Decode the block at ``offset`` (raises ValueError on malformed
        input)."""
        if len(data) - offset < 24:
            raise ValueError("report block too short")
        ssrc, frac_lost_word, highest_seq, jitter, _lsr, _dlsr = (
            _REPORT_BLOCK.unpack_from(data, offset)
        )
        return _decoded(
            cls,
            ssrc=ssrc,
            fraction_lost=frac_lost_word >> 24,
            cumulative_lost=frac_lost_word & 0xFFFFFF,
            highest_seq=highest_seq,
            jitter=jitter,
        )


@dataclass(frozen=True)
class ReceiverReport:
    """An RR packet with zero or more report blocks (at most 31: the
    count is the header's 5-bit RC field)."""

    sender_ssrc: int
    blocks: Tuple[ReportBlock, ...] = ()

    def __post_init__(self) -> None:
        _require_u32(self.sender_ssrc, "sender ssrc")
        if len(self.blocks) > 31:
            raise ValueError(f"an RR carries at most 31 blocks, got {len(self.blocks)}")

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        blocks = self.blocks
        n = len(blocks)
        head = _RR_HEAD.pack((RTCP_VERSION << 6) | n, PT_RR, 1 + 6 * n, self.sender_ssrc)
        return b"".join([head, *[block.serialize() for block in blocks]])

    @classmethod
    def parse(cls, data: bytes) -> "ReceiverReport":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        count, packet_type, total = parse_common_header(data)
        if packet_type != PT_RR:
            raise ValueError(f"not an RR packet (PT={packet_type})")
        if len(data) < total or total < 8:
            raise ValueError("RR packet truncated")
        parse_block = ReportBlock.parse
        return _decoded(
            cls,
            sender_ssrc=_read_u32(data, 4)[0],
            blocks=tuple(parse_block(data, 8 + 24 * k) for k in range(count)),
        )


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
        _require_u32(self.ssrc, "APP ssrc")
        if len(self.name) != 4:
            raise ValueError(f"APP name must be 4 bytes, got {self.name!r}")
        if len(self.data) % 4 != 0:
            raise ValueError("APP data must be 32-bit aligned")
        if len(self.data) > _MAX_BODY_BYTES - 8:
            raise ValueError(f"APP data too long: {len(self.data)} bytes")

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        data = self.data
        return (
            _APP_HEAD.pack(
                (RTCP_VERSION << 6) | self.subtype,
                PT_APP,
                2 + len(data) // 4,
                self.ssrc,
                self.name,
            )
            + data
        )

    @classmethod
    def parse(cls, data: bytes) -> "AppPacket":
        """Decode from wire bytes (raises ValueError on malformed input).

        The common header is read inline, with the checks and messages of
        :func:`parse_common_header`: SEMB reports arrive from every
        publisher every second, so this is the hottest decoder."""
        size = len(data)
        if size >= 12:
            byte0, packet_type, length_words, ssrc, name = _read_app_head(data)
        elif size >= 4:  # too short for an APP packet: one of the checks fails
            byte0, packet_type, length_words = _read_header(data)
        else:
            raise ValueError("RTCP packet too short")
        if byte0 >> 6 != RTCP_VERSION:
            raise ValueError(f"unsupported RTCP version {byte0 >> 6}")
        if packet_type != PT_APP:
            raise ValueError(f"not an APP packet (PT={packet_type})")
        total = 4 * length_words + 4
        if size < total or total < 12:
            raise ValueError("APP packet truncated")
        return _decoded(
            cls, subtype=byte0 & 0x1F, ssrc=ssrc, name=name, data=data[12:total]
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

    def __post_init__(self) -> None:
        _require_u32(self.sender_ssrc, "sender ssrc")
        if not 0 <= self.base_seq < 2**16:
            raise ValueError(f"base_seq out of range: {self.base_seq}")
        if 8 + 8 * len(self.arrivals) > _MAX_BODY_BYTES:
            raise ValueError(f"too many TWCC arrivals: {len(self.arrivals)}")
        for seq, arrival_us in self.arrivals:
            if not (0 <= seq < 2**16 and -(2**31) <= arrival_us < 2**31):
                raise ValueError(f"TWCC arrival out of range: {(seq, arrival_us)}")

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        arrivals = self.arrivals
        n = len(arrivals)
        pack = _TWCC_ARRIVAL.pack
        return b"".join(
            [
                _TWCC_HEAD.pack(
                    (RTCP_VERSION << 6) | self.FMT,
                    PT_RTPFB,
                    2 + 2 * n,
                    self.sender_ssrc,
                    self.base_seq,
                    n,
                ),
                *[pack(seq, 0, arrival_us) for seq, arrival_us in arrivals],
            ]
        )

    @classmethod
    def parse(cls, data: bytes) -> "TwccFeedback":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        fmt, packet_type, total = parse_common_header(data)
        if packet_type != PT_RTPFB or fmt != cls.FMT:
            raise ValueError("not a TWCC feedback packet")
        if len(data) < total or total < 12:
            raise ValueError("TWCC feedback truncated")
        _, _, _, sender_ssrc, base_seq, n = _TWCC_HEAD.unpack_from(data)
        if total < 12 + 8 * n:
            raise ValueError("TWCC arrival list truncated")
        arrivals = _TWCC_ARRIVAL.iter_unpack(memoryview(data)[12 : 12 + 8 * n])
        return _decoded(
            cls,
            sender_ssrc=sender_ssrc,
            base_seq=base_seq,
            arrivals=tuple([(seq, arrival_us) for seq, _pad, arrival_us in arrivals]),
        )


def parse_compound(data: bytes) -> List[bytes]:
    """Split a compound RTCP datagram into individual packet byte strings.

    Walks the common headers in place: the same "too short", version and
    truncation checks as :func:`parse_common_header`, without a call per
    packet.
    """
    packets: List[bytes] = []
    end = len(data)
    offset = 0
    while offset < end:
        if end - offset < 4:
            raise ValueError("RTCP packet too short")
        byte0, _, length_words = _read_header(data, offset)
        if byte0 >> 6 != RTCP_VERSION:
            raise ValueError(f"unsupported RTCP version {byte0 >> 6}")
        stop = offset + 4 * length_words + 4
        if stop > end:
            raise ValueError("compound RTCP truncated")
        packets.append(data[offset:stop])
        offset = stop
    return packets
