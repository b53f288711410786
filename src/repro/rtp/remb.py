"""REMB — Receiver Estimated Maximum Bitrate (draft-alvestrand-rmcat-remb).

The paper's SEMB message is defined "following the definition of receiver
estimated maximum bitrate (REMB)" but travels sender-to-server.  The
original REMB is the *receiver-driven* signal classic simulcast systems
use: the receiver estimates its own downlink from incoming traffic and
tells the sender.  The competitor-1 archetype (receiver-driven switching)
uses this real wire format.

Layout (PSFB, PT=206, FMT=15)::

       0               1               2               3
      | common header (V/P/FMT=15, PT=206, length)                   |
      | SSRC of packet sender                                        |
      | SSRC of media source (always 0 for REMB)                     |
      | 'R' 'E' 'M' 'B'                                              |
      | Num SSRC      | BR Exp    |       BR Mantissa                |
      | SSRC feedback applies to (repeated Num SSRC times)           |
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from .rtcp import PT_PSFB, _common_header, parse_common_header
from .semb import decode_exp_mantissa, encode_exp_mantissa

#: PSFB format number used by REMB ("application layer feedback").
REMB_FMT = 15

_REMB_ID = b"REMB"
_EXP_BITS = 6
_MANTISSA_BITS = 18


@dataclass(frozen=True)
class RembPacket:
    """One REMB message: the receiver can accept ``bitrate_bps`` in total."""

    sender_ssrc: int
    bitrate_bps: int
    media_ssrcs: Tuple[int, ...] = ()

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        exp, mantissa = encode_exp_mantissa(
            self.bitrate_bps, mantissa_bits=_MANTISSA_BITS
        )
        body = struct.pack("!II", self.sender_ssrc, 0)
        body += _REMB_ID
        body += struct.pack(
            "!I",
            (len(self.media_ssrcs) << 24) | (exp << _MANTISSA_BITS) | mantissa,
        )
        for ssrc in self.media_ssrcs:
            body += struct.pack("!I", ssrc)
        return _common_header(REMB_FMT, PT_PSFB, len(body)) + body

    @classmethod
    def parse(cls, data: bytes) -> "RembPacket":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        fmt, packet_type, total = parse_common_header(data)
        if packet_type != PT_PSFB or fmt != REMB_FMT:
            raise ValueError("not a REMB packet")
        if len(data) < total:
            raise ValueError("REMB packet truncated")
        if total < 20 or data[12:16] != _REMB_ID:
            raise ValueError("missing REMB identifier")
        sender_ssrc = struct.unpack("!I", data[4:8])[0]
        word = struct.unpack("!I", data[16:20])[0]
        num = word >> 24
        exp = (word >> _MANTISSA_BITS) & ((1 << _EXP_BITS) - 1)
        mantissa = word & ((1 << _MANTISSA_BITS) - 1)
        if total < 20 + 4 * num:
            raise ValueError("REMB SSRC list truncated")
        ssrcs = struct.unpack(f"!{num}I", data[20 : 20 + 4 * num])
        return cls(
            sender_ssrc=sender_ssrc,
            bitrate_bps=decode_exp_mantissa(exp, mantissa),
            media_ssrcs=tuple(ssrcs),
        )

    @property
    def bitrate_kbps(self) -> int:
        """The configured bitrate in kbps."""
        return self.bitrate_bps // 1000


def is_remb(data: bytes) -> bool:
    """Cheap test whether an RTCP packet is a REMB."""
    try:
        fmt, packet_type, total = parse_common_header(data)
    except ValueError:
        return False
    return (
        packet_type == PT_PSFB
        and fmt == REMB_FMT
        and total >= 20
        and data[12:16] == _REMB_ID
    )
