"""Arbitrary bytes into every ``rtp/`` decoder: return, or ``ValueError``.

Every decoder documents ``ValueError`` on malformed input, and that is
what the callers on the wire edge catch.  Anything else (a leaked
``struct.error``, an ``IndexError``) takes the receive path down with it.
The inputs are raw ``binary()`` plus valid packets of every kind that
were bit-flipped, cut, extended and, so that damage gets past the
framing check into the body decoders, re-framed: the header's length
field rewritten to match what is left.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rtp.nack import GenericNack
from repro.rtp.packet import RtpPacket
from repro.rtp.remb import RembPacket
from repro.rtp.rtcp import (
    AppPacket,
    ReceiverReport,
    ReportBlock,
    TwccFeedback,
    parse_common_header,
    parse_compound,
)
from repro.rtp.semb import SembReport
from repro.rtp.tmmbr import GsoTmmbn, GsoTmmbr, TmmbrEntry

_ENTRIES = (TmmbrEntry(ssrc=11, bitrate_bps=1_500_000), TmmbrEntry(ssrc=12, bitrate_bps=0))

#: One or two well-formed packets per wire format.
VALID = (
    ReceiverReport(1).serialize(),
    ReceiverReport(1, (ReportBlock(2, 12, 345, 6789, 10),)).serialize(),
    AppPacket(subtype=3, ssrc=7, name=b"TEST", data=b"\x00\x01\x02\x03").serialize(),
    TwccFeedback(1, 2, ((3, 4), (5, -1))).serialize(),
    GenericNack(1, 2, (10, 11, 30, 65_535)).serialize(),
    RembPacket(1, 2_500_000, (3, 4)).serialize(),
    SembReport(1, 800_000).to_app_packet().serialize(),
    SembReport(1, 3_200_000, (5, 6, 7)).to_app_packet().serialize(),
    GsoTmmbr(1, 42, _ENTRIES).to_app_packet().serialize(),
    GsoTmmbn(9, 42, _ENTRIES).to_app_packet().serialize(),
    RtpPacket(ssrc=1, seq=2, timestamp=3, payload=b"abcd").serialize(),
    RtpPacket(ssrc=1, seq=2, timestamp=3, payload=b"abcd", twcc_seq=77).serialize(),
)

#: The eleven entry points, each taking wire bytes.
DECODERS = (
    parse_common_header,
    parse_compound,
    AppPacket.parse,
    ReceiverReport.parse,
    TwccFeedback.parse,
    GenericNack.parse,
    RembPacket.parse,
    RtpPacket.parse,
    lambda data: SembReport.from_app_packet(AppPacket.parse(data)),
    lambda data: GsoTmmbr.from_app_packet(AppPacket.parse(data)),
    lambda data: GsoTmmbn.from_app_packet(AppPacket.parse(data)),
)


#: Inputs that leaked ``struct.error`` before the decoders checked their
#: lengths; random search finds the first four kinds, not the last two.
LEAKED = (
    TwccFeedback(1, 2, ((3, 4), (5, -1))).serialize()[:20],  # arrival list cut
    GenericNack(1, 2, (10,)).serialize()[:8],  # header cut
    struct.pack("!BBH", 0x80, 201, 0),  # an RR that ends before its SSRC
    RembPacket(1, 2_500_000).serialize()[:16],  # cut after the 'REMB' tag
    AppPacket(subtype=2, ssrc=9, name=b"GTBN").serialize(),  # TMMBN, no request id
    # An RTP one-byte extension element that starts on the block's last byte.
    RtpPacket(ssrc=1, seq=2, timestamp=3, twcc_seq=77).serialize()[:19] + b"\x11",
)


def damaged(packet, flips, keep, tail, reframe):
    """``packet`` with bits flipped, cut to ``keep`` bytes, ``tail``
    appended and, on request, its RTCP length field made to fit."""
    data = bytearray(packet)
    for position, bit in flips:
        data[position % len(data)] ^= 1 << bit
    data = data[: min(keep, len(data))] + tail
    if reframe and len(data) >= 4:
        data = data[: len(data) - len(data) % 4]
        data[2:4] = struct.pack("!H", len(data) // 4 - 1)
    return bytes(data)


def pinned(test):
    """Every ``LEAKED`` input as an explicit ``raw`` example."""
    for data in LEAKED:
        test = example(
            raw=data, packet=VALID[0], flips=[], keep=64, tail=b"", reframe=False
        )(test)
    return test


@given(
    raw=st.binary(max_size=64),
    packet=st.sampled_from(VALID),
    flips=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 7)), max_size=4),
    keep=st.integers(0, 64),
    tail=st.binary(max_size=12),
    reframe=st.booleans(),
)
@settings(max_examples=1500, deadline=None)
@pinned
def test_decoders_return_or_raise_value_error(raw, packet, flips, keep, tail, reframe):
    for data in (raw, damaged(packet, flips, keep, tail, reframe)):
        for decode in DECODERS:
            try:
                decode(data)
            except ValueError:
                pass
