"""Every ``rtp/`` encoder: arbitrary fields encode or raise ``ValueError``,
and valid objects survive ``parse(serialize(x)) == x``.

A value object checks its fields when it is built, so a field no wire
width can carry (a 33-bit SSRC, a 256th media SSRC, a negative bitrate)
is a ``ValueError`` there, never a ``struct.error`` from the encoder.
Whatever does encode must decode again.

Both property tests take their example budget from the Hypothesis
profile (``tests/conftest.py``): the default in tier-1, 2,000 examples
under ``--hypothesis-profile=deep``.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtp.nack import GenericNack
from repro.rtp.packet import RtpPacket
from repro.rtp.remb import RembPacket
from repro.rtp.rtcp import AppPacket, ReceiverReport, ReportBlock, TwccFeedback
from repro.rtp.semb import SembReport
from repro.rtp.tmmbr import GsoTmmbn, GsoTmmbr, TmmbrEntry

u16 = st.integers(0, 2**16 - 1)
u32 = st.integers(0, 2**32 - 1)
#: Any integer, weighted toward the edges of the wire widths.
anything = st.one_of(
    st.sampled_from([-1, 0, 2**8, 2**9, 2**16, 2**24, 2**31, 2**32 - 1, 2**32, 2**64]),
    st.integers(-(2**33), 2**33),
    st.integers(),
)


def exact_bitrates(mantissa_bits):
    """Bitrates the exponent/mantissa form holds exactly, so a round trip
    gives back the same number."""
    return st.builds(
        lambda mantissa, exp: mantissa << exp,
        st.integers(0, 2**mantissa_bits - 1),
        st.integers(0, 63),
    )


def aligned_data(max_words=8):
    return st.integers(0, max_words).flatmap(lambda n: st.binary(min_size=4 * n, max_size=4 * n))


blocks = st.builds(ReportBlock, u32, st.integers(0, 255), st.integers(0, 2**24 - 1), u32, u32)
entries = st.builds(TmmbrEntry, u32, exact_bitrates(17), st.integers(0, 2**9 - 1))


def ssrc_lists(max_size):
    return st.lists(u32, max_size=max_size).map(tuple)


def app_wire(obj):
    return obj.to_app_packet().serialize()


def from_app(cls):
    return lambda data: cls.from_app_packet(AppPacket.parse(data))


#: name -> (valid objects, encode, decode).
CODECS = {
    "report_block": (blocks, ReportBlock.serialize, ReportBlock.parse),
    "rr": (
        st.builds(ReceiverReport, u32, st.lists(blocks, max_size=31).map(tuple)),
        ReceiverReport.serialize,
        ReceiverReport.parse,
    ),
    "app": (
        st.builds(AppPacket, st.integers(0, 31), u32, st.binary(min_size=4, max_size=4), aligned_data()),
        AppPacket.serialize,
        AppPacket.parse,
    ),
    "twcc": (
        st.builds(
            TwccFeedback,
            u32,
            u16,
            st.lists(st.tuples(u16, st.integers(-(2**31), 2**31 - 1)), max_size=20).map(tuple),
        ),
        TwccFeedback.serialize,
        TwccFeedback.parse,
    ),
    # A NACK decodes to its sequence numbers sorted and deduplicated.
    "nack": (
        st.builds(GenericNack, u32, u32, st.sets(u16, max_size=40).map(sorted).map(tuple)),
        GenericNack.serialize,
        GenericNack.parse,
    ),
    "remb": (
        st.builds(RembPacket, u32, exact_bitrates(18), ssrc_lists(255)),
        RembPacket.serialize,
        RembPacket.parse,
    ),
    "semb": (
        st.builds(SembReport, u32, exact_bitrates(18), ssrc_lists(255)),
        app_wire,
        from_app(SembReport),
    ),
    "tmmbr_entry": (entries, TmmbrEntry.serialize, TmmbrEntry.parse),
    "gtbr": (
        st.builds(GsoTmmbr, u32, u32, st.lists(entries, max_size=8).map(tuple)),
        app_wire,
        from_app(GsoTmmbr),
    ),
    "gtbn": (
        st.builds(GsoTmmbn, u32, u32, st.lists(entries, max_size=8).map(tuple)),
        app_wire,
        from_app(GsoTmmbn),
    ),
    "rtp": (
        st.builds(
            RtpPacket,
            ssrc=u32,
            seq=u16,
            timestamp=u32,
            payload_type=st.integers(0, 127),
            marker=st.booleans(),
            payload=st.binary(max_size=64),
            twcc_seq=st.none() | u16,
        ),
        RtpPacket.serialize,
        RtpPacket.parse,
    ),
}


@pytest.mark.parametrize("codec", sorted(CODECS))
@given(data=st.data())
@settings(deadline=None)
def test_round_trip(codec, data):
    objects, encode, decode = CODECS[codec]
    obj = data.draw(objects)
    decoded = decode(encode(obj))
    assert decoded == obj
    assert hash(decoded) == hash(obj)
    assert dataclasses.replace(decoded) == decoded


def _ssrcs(draw):
    """A few arbitrary SSRCs, sometimes padded past the 255 an 8-bit
    count holds."""
    padding = draw(st.sampled_from([0, 251, 252]))
    return tuple(draw(st.lists(anything, max_size=4))) + (0,) * padding


#: name -> builds one object from arbitrary field values, drawn with ``draw``.
ARBITRARY = {
    "report_block": lambda draw: ReportBlock(*(draw(anything) for _ in range(5))),
    "rr": lambda draw: ReceiverReport(
        draw(anything), tuple(draw(st.lists(blocks, max_size=33)))
    ),
    "app": lambda draw: AppPacket(
        draw(anything), draw(anything), draw(st.binary(max_size=6)), draw(st.binary(max_size=12))
    ),
    "twcc": lambda draw: TwccFeedback(
        draw(anything), draw(anything), tuple(draw(st.lists(st.tuples(anything, anything), max_size=4)))
    ),
    "nack": lambda draw: GenericNack(
        draw(anything), draw(anything), tuple(draw(st.lists(anything, max_size=6)))
    ),
    "remb": lambda draw: RembPacket(draw(anything), draw(anything), _ssrcs(draw)),
    "semb": lambda draw: SembReport(draw(anything), draw(anything), _ssrcs(draw)),
    "tmmbr_entry": lambda draw: TmmbrEntry(draw(anything), draw(anything), draw(anything)),
    "gtbr": lambda draw: GsoTmmbr(
        draw(anything), draw(anything), tuple(draw(st.lists(entries, max_size=3)))
    ),
    "gtbn": lambda draw: GsoTmmbn(
        draw(anything), draw(anything), tuple(draw(st.lists(entries, max_size=3)))
    ),
    "rtp": lambda draw: RtpPacket(
        draw(anything),
        draw(anything),
        draw(anything),
        draw(anything),
        draw(st.booleans()),
        draw(st.binary(max_size=8)),
        draw(st.none() | anything),
    ),
}


def test_every_codec_is_fuzzed():
    assert sorted(ARBITRARY) == sorted(CODECS)


@pytest.mark.parametrize("codec", sorted(ARBITRARY))
@given(data=st.data())
@settings(deadline=None)
def test_arbitrary_fields_encode_or_raise_value_error(codec, data):
    _, encode, decode = CODECS[codec]
    try:
        wire = encode(ARBITRARY[codec](data.draw))
    except ValueError:
        return
    decode(wire)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SembReport(1, 1000, tuple(range(256))).to_app_packet(),
        lambda: SembReport(2**32, 1000).to_app_packet().serialize(),
        lambda: SembReport(1, -1),
        lambda: SembReport(1, 1000, (2**32,)),
        lambda: AppPacket(0, -1, b"SEMB").serialize(),
        lambda: AppPacket(0, 1, b"SEMB", bytes(4 * 2**16)),
        lambda: GsoTmmbr(1, 2**32, ()).to_app_packet(),
        lambda: GsoTmmbr(-1, 1, ()),
        lambda: GsoTmmbn(1, -1, ()),
        lambda: RembPacket(1, 1000, tuple(range(256))),
        lambda: ReportBlock(2**32, 0, 0, 0, 0),
        lambda: ReceiverReport(1, (ReportBlock(1, 0, 0, 0, 0),) * 32),
        lambda: TwccFeedback(1, 2**16, ()),
        lambda: TwccFeedback(1, 0, ((0, 2**31),)),
        lambda: GenericNack(2**32, 0, ()),
    ],
)
def test_fields_no_wire_width_holds_are_value_errors(build):
    # Each of these raised struct.error from the encoder (or, for the RR,
    # silently wrapped its 5-bit block count) before fields were checked.
    with pytest.raises(ValueError):
        build()
