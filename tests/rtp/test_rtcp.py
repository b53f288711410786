"""Unit tests for RTCP serialization: RR, APP, TWCC feedback, compounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtp.rtcp import (
    PT_APP,
    AppPacket,
    ReceiverReport,
    ReportBlock,
    TwccFeedback,
    parse_common_header,
    parse_compound,
)


class TestCommonHeader:
    def test_round_trip_via_app(self):
        p = AppPacket(subtype=3, ssrc=42, name=b"SEMB", data=b"\x00" * 4)
        fmt, pt, total = parse_common_header(p.serialize())
        assert fmt == 3
        assert pt == PT_APP
        assert total == len(p.serialize())

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            parse_common_header(b"\x80")

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            parse_common_header(b"\x00\xc8\x00\x00")


class TestReceiverReport:
    def test_round_trip_no_blocks(self):
        rr = ReceiverReport(sender_ssrc=7)
        assert ReceiverReport.parse(rr.serialize()) == rr

    def test_round_trip_with_blocks(self):
        rr = ReceiverReport(
            sender_ssrc=7,
            blocks=(
                ReportBlock(
                    ssrc=1,
                    fraction_lost=128,
                    cumulative_lost=1000,
                    highest_seq=55_555,
                    jitter=90,
                ),
                ReportBlock(
                    ssrc=2,
                    fraction_lost=0,
                    cumulative_lost=0,
                    highest_seq=1,
                    jitter=0,
                ),
            ),
        )
        parsed = ReceiverReport.parse(rr.serialize())
        assert parsed == rr

    def test_report_block_round_trips_alone(self):
        # The block encodes the RFC 3550 24-byte layout its parser reads,
        # LSR and DLSR zero.
        block = ReportBlock(1, 2, 3, 4, 5)
        wire = block.serialize()
        assert len(wire) == 24
        assert wire[16:] == bytes(8)
        assert ReportBlock.parse(wire) == block

    def test_wire_bytes_are_pinned(self):
        # The RR is its header, the sender SSRC and each block's own
        # encoding; a 25-bit cumulative loss keeps its low 24 bits.
        rr = ReceiverReport(
            7,
            (
                ReportBlock(1, 128, 1000, 55_555, 90),
                ReportBlock(2, 0, 0x1234567, 1, 0xFFFFFFFF),
            ),
        )
        assert rr.serialize().hex() == (
            "82c9000d00000007"
            "00000001800003e80000d9030000005a0000000000000000"
            "000000020023456700000001ffffffff0000000000000000"
        )

    def test_parse_rejects_wrong_type(self):
        app = AppPacket(subtype=0, ssrc=1, name=b"ABCD").serialize()
        with pytest.raises(ValueError, match="not an RR"):
            ReceiverReport.parse(app)


class TestAppPacket:
    def test_round_trip(self):
        p = AppPacket(subtype=1, ssrc=99, name=b"GTBR", data=b"\x01" * 8)
        assert AppPacket.parse(p.serialize()) == p

    def test_name_must_be_four_bytes(self):
        with pytest.raises(ValueError, match="4 bytes"):
            AppPacket(subtype=0, ssrc=1, name=b"ABC")

    def test_data_must_be_aligned(self):
        with pytest.raises(ValueError, match="aligned"):
            AppPacket(subtype=0, ssrc=1, name=b"ABCD", data=b"\x00" * 3)

    def test_subtype_range(self):
        with pytest.raises(ValueError):
            AppPacket(subtype=32, ssrc=1, name=b"ABCD")

    def test_parse_rejects_wrong_type(self):
        rr = ReceiverReport(sender_ssrc=1).serialize()
        with pytest.raises(ValueError, match="not an APP"):
            AppPacket.parse(rr)


class TestTwccFeedback:
    def test_round_trip(self):
        fb = TwccFeedback(
            sender_ssrc=5,
            base_seq=100,
            arrivals=((100, 1_000_000), (101, -1), (102, 1_040_000)),
        )
        assert TwccFeedback.parse(fb.serialize()) == fb

    def test_empty_arrivals(self):
        fb = TwccFeedback(sender_ssrc=5, base_seq=0, arrivals=())
        assert TwccFeedback.parse(fb.serialize()) == fb

    def test_parse_rejects_wrong_fmt(self):
        rr = ReceiverReport(sender_ssrc=1).serialize()
        with pytest.raises(ValueError):
            TwccFeedback.parse(rr)


class TestCompound:
    def test_splits_multiple_packets(self):
        rr = ReceiverReport(sender_ssrc=1).serialize()
        app = AppPacket(subtype=0, ssrc=2, name=b"SEMB", data=b"\x00" * 4).serialize()
        parts = parse_compound(rr + app)
        assert parts == [rr, app]

    def test_rejects_truncation(self):
        rr = ReceiverReport(sender_ssrc=1).serialize()
        with pytest.raises(ValueError, match="truncated"):
            parse_compound(rr[:-2])

    def test_truncated_last_packet(self):
        # Whole packets ahead of it split fine; the short tail is refused.
        rr = ReceiverReport(sender_ssrc=1).serialize()
        app = AppPacket(subtype=0, ssrc=2, name=b"SEMB", data=b"\x00" * 4).serialize()
        assert parse_compound(rr + rr + app) == [rr, rr, app]
        with pytest.raises(ValueError, match="compound RTCP truncated"):
            parse_compound(rr + rr + app[:-4])

    def test_header_read_at_an_offset(self):
        rr = ReceiverReport(sender_ssrc=1).serialize()
        app = AppPacket(subtype=3, ssrc=2, name=b"SEMB").serialize()
        assert parse_common_header(rr + app, len(rr)) == parse_common_header(app)
        with pytest.raises(ValueError, match="too short"):
            parse_common_header(rr + app[:3], len(rr))


@given(
    subtype=st.integers(0, 31),
    ssrc=st.integers(0, 2**32 - 1),
    name=st.binary(min_size=4, max_size=4),
    words=st.integers(0, 16),
)
@settings(max_examples=100, deadline=None)
def test_app_round_trip_property(subtype, ssrc, name, words):
    p = AppPacket(subtype=subtype, ssrc=ssrc, name=name, data=b"\x5a" * (4 * words))
    assert AppPacket.parse(p.serialize()) == p
