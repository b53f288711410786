"""SEMB — Sender Estimated Maximum Bitrate (Sec. 4.2).

Uplink bandwidths are measured sender-side at clients and must reach the
conference node quickly: the global picture of Sec. 4.2 needs the uplink
budget ``B_u_i`` of every publisher ``i`` before the Step-3 uplink checks
(Eq. 14-17) can run.  The paper defines SEMB "following the definition of
receiver estimated maximum bitrate (REMB)" and ships it *in-band* — over
the media path, not the signaling channel — so a report survives exactly
when the link it describes is alive.

**Carrier.** SEMB rides in an application-defined RTCP packet
(**APP, PT=204**, RFC 3550 §6.7) whose 4-byte name field is ``"SEMB"``
(:data:`SEMB_NAME`).  Using APP rather than a new PT keeps middleboxes and
existing RTCP demuxers untouched — the same trick the paper uses for the
GSO TMMBR/TMMBN configuration messages (:mod:`repro.rtp.tmmbr`).

**Encoding.** The reported bandwidth is ``B = Mantissa * 2^Exp`` with a
6-bit exponent and an 18-bit mantissa, exactly the REMB draft's floating
point (`draft-alvestrand-rmcat-remb-03 §2.2
<https://datatracker.ietf.org/doc/html/draft-alvestrand-rmcat-remb-03>`__).
:func:`encode_exp_mantissa` rounds **up** so the decoded value never
understates the measurement; with 18 mantissa bits the representable range
tops out at ``(2^18 - 1) * 2^63`` bps, far beyond any real link.

Wire layout of the APP data field (after the 4-byte name ``"SEMB"``)::

       0                   1                   2                   3
      +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
      |  Num SSRC     | BR Exp    |        BR Mantissa              |
      +---------------------------------------------------------------+
      |  SSRC feedback applies to (repeated Num SSRC times)           |

The conference node consumes reports via
``ConferenceNode.on_semb_report`` (uplink half of the global picture);
the downlink half arrives server-side from the accessing nodes.  The
codec is a pure function of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .rtcp import (
    _U32_RUNS,
    AppPacket,
    _decoded,
    _read_u32,
    _require_ssrc_list,
    _require_u32,
)

#: 4-byte APP name identifying SEMB packets.
SEMB_NAME = b"SEMB"

_EXP_BITS = 6
_MANTISSA_BITS = 18
_MAX_EXP = (1 << _EXP_BITS) - 1


def encode_exp_mantissa(
    bitrate_bps: int, mantissa_bits: int = _MANTISSA_BITS
) -> Tuple[int, int]:
    """Encode a bitrate as (exp, mantissa) with ``mantissa * 2^exp >= value``
    minimal — the REMB/TMMBR rounding convention (round up, never report
    less than measured).

    Closed form: the exponent is the number of bits beyond the mantissa
    width, the mantissa the quotient rounded up; when rounding up carries
    into one more bit, the exponent grows by one.

    Args:
        bitrate_bps: the value to encode, in bits per second.
        mantissa_bits: mantissa width (18 for REMB/SEMB, 17 for TMMBR).

    Returns:
        (exp, mantissa).

    Raises:
        ValueError: if the value cannot be represented.
    """
    if bitrate_bps < 0:
        raise ValueError("bitrate must be non-negative")
    exp = bitrate_bps.bit_length() - mantissa_bits
    if exp <= 0:
        return 0, bitrate_bps
    mantissa = -(-bitrate_bps >> exp)  # rounded up, so never understated
    if mantissa >> mantissa_bits:  # the round-up carried: 2^mantissa_bits
        mantissa >>= 1
        exp += 1
    if exp > _MAX_EXP:
        raise ValueError(f"bitrate {bitrate_bps} too large to encode")
    return exp, mantissa


def decode_exp_mantissa(exp: int, mantissa: int) -> int:
    """Decode ``mantissa * 2^exp`` back to bits per second."""
    if exp < 0 or mantissa < 0:
        raise ValueError("exp and mantissa must be non-negative")
    return mantissa << exp


@dataclass(frozen=True)
class SembReport:
    """An uplink bandwidth report from a client.

    Attributes:
        sender_ssrc: the reporting client's RTCP SSRC.
        bitrate_bps: the sender-side estimated uplink capacity.
        media_ssrcs: the streams the estimate covers (empty = whole link).
    """

    sender_ssrc: int
    bitrate_bps: int
    media_ssrcs: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _require_u32(self.sender_ssrc, "sender ssrc")
        if self.bitrate_bps < 0:
            raise ValueError("bitrate must be non-negative")
        _require_ssrc_list(self.media_ssrcs, "SEMB report")

    def to_app_packet(self) -> AppPacket:
        """Wrap into the PT=204 APP packet the paper prescribes."""
        exp, mantissa = encode_exp_mantissa(self.bitrate_bps)
        ssrcs = self.media_ssrcs
        n = len(ssrcs)
        data = _U32_RUNS[n + 1].pack(
            (n << 24) | (exp << _MANTISSA_BITS) | mantissa, *ssrcs
        )
        return _decoded(
            AppPacket, subtype=0, ssrc=self.sender_ssrc, name=SEMB_NAME, data=data
        )

    @classmethod
    def from_app_packet(cls, packet: AppPacket) -> "SembReport":
        """Parse a SEMB report back out of an APP packet.

        Raises:
            ValueError: if the APP packet is not a SEMB packet.
        """
        if packet.name != SEMB_NAME:
            raise ValueError(f"not a SEMB packet: name={packet.name!r}")
        data = packet.data
        if len(data) < 4:
            raise ValueError("SEMB payload too short")
        word = _read_u32(data)[0]
        num_ssrc = word >> 24
        if num_ssrc:
            if len(data) < 4 + 4 * num_ssrc:
                raise ValueError("SEMB SSRC list truncated")
            ssrcs = _U32_RUNS[num_ssrc].unpack_from(data, 4)
        else:
            ssrcs = ()
        return _decoded(
            cls,
            sender_ssrc=packet.ssrc,
            # 18-bit mantissa shifted left by the 6-bit exponent above it.
            bitrate_bps=(word & 0x3FFFF) << ((word >> 18) & 0x3F),
            media_ssrcs=ssrcs,
        )

    @property
    def bitrate_kbps(self) -> int:
        """The report rounded down to kbps (solver units)."""
        return self.bitrate_bps // 1000
