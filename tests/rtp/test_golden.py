"""The encoders' bytes are pinned, and the closed-form exponent/mantissa
encoder is checked against the loop it replaced.

``GOLDEN`` was captured from the encoders as they were before the codecs
moved to precompiled structs and one ``pack``/``join`` per packet: a
fixed corpus of every packet kind, with the field values at the edges of
their widths.  Encodings longer than 40 bytes are pinned by digest.
"""

import hashlib

import pytest

from repro.rtp.nack import GenericNack
from repro.rtp.packet import RtpPacket
from repro.rtp.remb import RembPacket
from repro.rtp.rtcp import AppPacket, ReceiverReport, ReportBlock, TwccFeedback
from repro.rtp.semb import SembReport, encode_exp_mantissa
from repro.rtp.tmmbr import GsoTmmbn, GsoTmmbr, TmmbrEntry

BLOCK = ReportBlock(2, 12, 345, 6789, 10)
ENTRIES = (
    TmmbrEntry(11, 1_500_000),
    TmmbrEntry(12, 0, 0),
    TmmbrEntry(2**32 - 1, 10**10, 511),
)

#: (encode, its bytes: hex, or "sha256:" + digest when longer than 40).
GOLDEN = [
    (
        lambda: ReportBlock(2, 12, 345, 6789, 10).serialize(),
        "000000020c00015900001a850000000a0000000000000000",
    ),
    (
        lambda: ReportBlock(2**32 - 1, 255, 0xFFFFFF, 2**32 - 1, 2**32 - 1).serialize(),
        "ffffffffffffffffffffffffffffffff0000000000000000",
    ),
    (
        lambda: ReceiverReport(1).serialize(),
        "80c9000100000001",
    ),
    (
        lambda: ReceiverReport(0xDEADBEEF, (BLOCK, ReportBlock(3, 0, 0, 0, 0))).serialize(),
        "sha256:d2422b1f9d46126f82e278e63b7eb15db4893c75b61034d89b9d36dbda9a9364",
    ),
    (
        lambda: AppPacket(3, 7, b'TEST', b'\x00\x01\x02\x03').serialize(),
        "83cc0003000000075445535400010203",
    ),
    (
        lambda: AppPacket(31, 2**32 - 1, b'ABCD').serialize(),
        "9fcc0002ffffffff41424344",
    ),
    (
        lambda: TwccFeedback(1, 2, ()).serialize(),
        "8fcd00020000000100020000",
    ),
    (
        lambda: TwccFeedback(1, 2, ((3, 4), (5, -1), (65_535, 2**31 - 1))).serialize(),
        "8fcd00080000000100020003000300000000000400050000ffffffffffff00007fffffff",
    ),
    (
        lambda: GenericNack(1, 2, ()).serialize(),
        "81cd00020000000100000002",
    ),
    (
        lambda: GenericNack(1, 2, (10, 11, 30, 65_535)).serialize(),
        "81cd00050000000100000002000a0001001e0000ffff0000",
    ),
    (
        lambda: GenericNack(0, 2**32 - 1, (0, 16, 17, 40_000, 40_001, 40_016)).serialize(),
        "81cd000500000000ffffffff00008000001100009c408001",
    ),
    (
        lambda: RembPacket(1, 0).serialize(),
        "8fce0004000000010000000052454d4200000000",
    ),
    (
        lambda: RembPacket(1, 2_500_000, (3, 4)).serialize(),
        "8fce0006000000010000000052454d420212625a0000000300000004",
    ),
    (
        lambda: RembPacket(2**32 - 1, 10**12, tuple(range(1, 256))).serialize(),
        "sha256:a78a874a3d9beaa016212690355c43cc90e16dfb33d1ac2534f5222c27dab590",
    ),
    (
        lambda: SembReport(1, 800_000).to_app_packet().serialize(),
        "80cc00030000000153454d42000b0d40",
    ),
    (
        lambda: SembReport(1, 3_200_000, (5, 6, 7)).to_app_packet().serialize(),
        "80cc00060000000153454d4203130d40000000050000000600000007",
    ),
    (
        lambda: SembReport(2**32 - 1, 5 * 10**9, tuple(range(255))).to_app_packet().serialize(),
        "sha256:af9227d40b955b8007a7ec01f8d75c05b330cc41229f9580cb752868c450cc4a",
    ),
    (
        lambda: SembReport(0x10005, (2**18 - 1) << 63).to_app_packet().serialize(),
        "80cc00030001000553454d4200ffffff",
    ),
    (
        lambda: TmmbrEntry(11, 1_500_000).serialize(),
        "0000000b12dc6c1c",
    ),
    (
        lambda: TmmbrEntry(12, 0, 0).serialize(),
        "0000000c00000000",
    ),
    (
        lambda: TmmbrEntry(2**32 - 1, 10**10, 511).serialize(),
        "ffffffff46540dff",
    ),
    (
        lambda: TmmbrEntry(13, (2**17 - 1) << 63).serialize(),
        "0000000dfffffe1c",
    ),
    (
        lambda: GsoTmmbr(1, 42, ()).to_app_packet().serialize(),
        "81cc000300000001475442520000002a",
    ),
    (
        lambda: GsoTmmbr(0xC0FFEE, 2**32 - 1, ENTRIES).to_app_packet().serialize(),
        "81cc000900c0ffee47544252ffffffff0000000b12dc6c1c0000000c00000000ffffffff46540dff",
    ),
    (
        lambda: GsoTmmbn(9, 42, ENTRIES).to_app_packet().serialize(),
        "82cc0009000000094754424e0000002a0000000b12dc6c1c0000000c00000000ffffffff46540dff",
    ),
    (
        lambda: RtpPacket(ssrc=1, seq=2, timestamp=3).serialize(),
        "806000020000000300000001",
    ),
    (
        lambda: RtpPacket(ssrc=1, seq=2, timestamp=3, payload=b'abcd', twcc_seq=77).serialize(),
        "906000020000000300000001bede000111004d0061626364",
    ),
    (
        lambda: RtpPacket(
            ssrc=2**32 - 1,
            seq=65_535,
            timestamp=2**32 - 1,
            payload_type=111,
            marker=True,
            payload=b"\xff" * 9,
            twcc_seq=65_535,
        ).serialize(),
        "90efffffffffffffffffffffbede000111ffff00ffffffffffffffffff",
    ),

]


def _pinned(wire: bytes) -> str:
    if len(wire) <= 40:
        return wire.hex()
    return "sha256:" + hashlib.sha256(wire).hexdigest()


@pytest.mark.parametrize("index", range(len(GOLDEN)))
def test_encoded_bytes_are_unchanged(index):
    encode, expected = GOLDEN[index]
    assert _pinned(encode()) == expected


def test_the_corpus_covers_every_encoder():
    kinds = {encode.__code__.co_names[0] for encode, _ in GOLDEN}
    assert kinds == {
        "ReportBlock", "ReceiverReport", "AppPacket", "TwccFeedback",
        "GenericNack", "RembPacket", "SembReport", "TmmbrEntry",
        "GsoTmmbr", "GsoTmmbn", "RtpPacket",
    }


def reference_encode(bitrate_bps, mantissa_bits):
    """The loop ``encode_exp_mantissa`` was before it became closed form:
    halve, rounding up, until the value fits the mantissa."""
    if bitrate_bps < 0:
        raise ValueError("bitrate must be non-negative")
    max_mantissa = (1 << mantissa_bits) - 1
    exp = 0
    value = bitrate_bps
    while value > max_mantissa:
        value = (value + 1) // 2
        exp += 1
        if exp > 63:
            raise ValueError(f"bitrate {bitrate_bps} too large to encode")
    return exp, value


def outcome(encode, value, mantissa_bits):
    try:
        return encode(value, mantissa_bits)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("mantissa_bits", [17, 18])
def test_closed_form_matches_the_loop_on_every_small_value(mantissa_bits):
    mismatches = [
        value
        for value in range(2**20 + 1)
        if encode_exp_mantissa(value, mantissa_bits)
        != reference_encode(value, mantissa_bits)
    ]
    assert mismatches == []


@pytest.mark.parametrize("mantissa_bits", [17, 18])
def test_closed_form_matches_the_loop_around_every_power_of_two(mantissa_bits):
    # Up to and past the largest encodable value, (2^m - 1) * 2^63.
    limit = ((1 << mantissa_bits) - 1) << 63
    values = {
        base + delta
        for base in [1 << k for k in range(mantissa_bits + 65)] + [limit]
        for delta in range(-2, 3)
        if base + delta >= 0
    }
    for value in sorted(values):
        assert outcome(encode_exp_mantissa, value, mantissa_bits) == outcome(
            reference_encode, value, mantissa_bits
        ), value


@pytest.mark.parametrize("mantissa_bits", [17, 18])
def test_too_large_is_a_value_error(mantissa_bits):
    limit = ((1 << mantissa_bits) - 1) << 63
    assert encode_exp_mantissa(limit, mantissa_bits) == (63, (1 << mantissa_bits) - 1)
    for value in (limit + 1, 1 << (mantissa_bits + 64), 10**40):
        with pytest.raises(ValueError, match="too large to encode"):
            encode_exp_mantissa(value, mantissa_bits)
    with pytest.raises(ValueError, match="non-negative"):
        encode_exp_mantissa(-1, mantissa_bits)
