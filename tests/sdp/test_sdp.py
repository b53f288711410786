"""Unit tests for SDP and simulcastInfo negotiation."""

import pytest

from repro.core.types import Resolution
from repro.sdp.sdp import SessionDescription
from repro.sdp.simulcast_info import (
    MAX_BITRATE_KBPS,
    ResolutionCapability,
    SimulcastInfo,
    build_offer,
    capability_from_info,
)


def sample_info():
    return SimulcastInfo(
        client="alice",
        codec="H264",
        max_streams=3,
        resolutions=(
            ResolutionCapability(Resolution.P720, 1500, 900, ssrc=0x100),
            ResolutionCapability(Resolution.P360, 800, 400, ssrc=0x101),
            ResolutionCapability(Resolution.P180, 300, 100, ssrc=0x102),
        ),
    )


class TestSdp:
    def test_serialize_parse_round_trip(self):
        offer, _ = build_offer(sample_info(), session_id=42)
        text = offer.serialize()
        parsed = SessionDescription.parse(text)
        assert parsed.session_id == 42
        assert parsed.origin_user == "alice"
        assert len(parsed.media) == 2
        assert parsed.media[0].media == "audio"
        assert parsed.media[1].media == "video"

    def test_video_section_lists_per_resolution_ssrcs(self):
        offer, _ = build_offer(sample_info(), session_id=1)
        video = offer.video_sections()[0]
        ssrc_attrs = video.attribute_values("ssrc")
        assert len(ssrc_attrs) == 3
        assert any("alice-720p" in v for v in ssrc_attrs)

    def test_flag_attributes(self):
        offer, _ = build_offer(sample_info(), session_id=1)
        text = offer.serialize()
        assert "a=sendrecv" in text
        parsed = SessionDescription.parse(text)
        video = parsed.video_sections()[0]
        assert ("sendrecv", None) in video.attributes

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SessionDescription.parse("not sdp at all")
        with pytest.raises(ValueError):
            SessionDescription.parse("")
        with pytest.raises(ValueError, match="v=0"):
            SessionDescription.parse("a=foo\r\n")

    def test_parse_rejects_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            SessionDescription.parse("v=1\r\n")

    def test_crlf_and_lf_both_accepted(self):
        offer, _ = build_offer(sample_info(), session_id=1)
        lf_text = offer.serialize().replace("\r\n", "\n")
        parsed = SessionDescription.parse(lf_text)
        assert len(parsed.media) == 2


class TestSimulcastInfo:
    def test_json_round_trip(self):
        info = sample_info()
        parsed = SimulcastInfo.from_json(info.to_json())
        assert parsed == info

    def test_rejects_malformed_json(self):
        with pytest.raises(ValueError, match="malformed"):
            SimulcastInfo.from_json("{nope")

    def test_rejects_incomplete_json(self):
        with pytest.raises(ValueError, match="incomplete"):
            SimulcastInfo.from_json('{"client": "x"}')

    def test_rejects_more_resolutions_than_streams(self):
        with pytest.raises(ValueError, match="exceed"):
            SimulcastInfo(
                client="x",
                codec="H264",
                max_streams=1,
                resolutions=(
                    ResolutionCapability(Resolution.P720, 1500, 900, 1),
                    ResolutionCapability(Resolution.P360, 800, 400, 2),
                ),
            )

    def test_rejects_duplicate_resolutions(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimulcastInfo(
                client="x",
                codec="H264",
                max_streams=3,
                resolutions=(
                    ResolutionCapability(Resolution.P720, 1500, 900, 1),
                    ResolutionCapability(Resolution.P720, 1000, 500, 2),
                ),
            )

    def test_rejects_bad_bitrate_range(self):
        with pytest.raises(ValueError, match="below min"):
            ResolutionCapability(Resolution.P720, 500, 900, 1)

    @pytest.mark.parametrize(
        "max_kbps, min_kbps, ssrc",
        [
            (float("nan"), 900, 1),
            (float("inf"), 900, 1),
            (1500.0, 900, 1),
            (1500, True, 1),
            (MAX_BITRATE_KBPS + 1, 900, 1),
            (1500, 900, -1),
            (1500, 900, 2**32),
            (1500, 900, 1.0),
        ],
    )
    def test_programmatic_capability_gets_the_wire_checks(
        self, max_kbps, min_kbps, ssrc
    ):
        with pytest.raises(ValueError):
            ResolutionCapability(Resolution.P720, max_kbps, min_kbps, ssrc)
        ResolutionCapability(Resolution.P720, MAX_BITRATE_KBPS, 1, 2**32 - 1)

    def test_ssrc_by_resolution(self):
        mapping = sample_info().ssrc_by_resolution()
        assert mapping[Resolution.P720] == 0x100


class TestCapabilityFromInfo:
    def test_generates_requested_levels(self):
        streams = capability_from_info(sample_info(), levels_per_resolution=5)
        assert len(streams) == 15
        by_res = {}
        for s in streams:
            by_res.setdefault(s.resolution, []).append(s)
        assert all(len(v) == 5 for v in by_res.values())

    def test_respects_min_max_ranges(self):
        streams = capability_from_info(sample_info(), levels_per_resolution=3)
        for s in streams:
            if s.resolution == Resolution.P720:
                assert 890 <= s.bitrate_kbps <= 1500

    def test_single_level_uses_max(self):
        streams = capability_from_info(sample_info(), levels_per_resolution=1)
        rates = {s.resolution: s.bitrate_kbps for s in streams}
        assert rates[Resolution.P720] == 1500

    def test_feeds_the_solver(self):
        """The generated set passes feasible-set validation and produces a
        working problem end to end."""
        from repro.core import Bandwidth, Problem, Subscription, solve

        streams = capability_from_info(sample_info())
        p = Problem(
            {"alice": streams},
            {"alice": Bandwidth(5000, 100), "bob": Bandwidth(100, 1200)},
            [Subscription("bob", "alice", Resolution.P720)],
        )
        s = solve(p)
        s.validate(p)
        assert s.assignments["bob"]["alice"].bitrate_kbps <= 1200


class TestAnswerNegotiation:
    def test_answer_mirrors_offer(self):
        from repro.sdp.simulcast_info import build_answer

        info = sample_info()
        offer, _ = build_offer(info, session_id=9)
        answer = build_answer(offer, info)
        assert answer.session_id == 9
        assert [m.media for m in answer.media] == ["audio", "video"]
        assert answer.media[1].payload_types == offer.media[1].payload_types
        video = answer.video_sections()[0]
        assert len(video.attribute_values("ssrc")) == 3

    def test_answer_round_trips_through_wire_text(self):
        from repro.sdp.simulcast_info import build_answer

        info = sample_info()
        offer, _ = build_offer(info, session_id=9)
        answer = build_answer(offer, info)
        parsed = SessionDescription.parse(answer.serialize())
        assert parsed.origin_user == "conference"


class TestWireFormatJoin:
    def make_node(self):
        from repro.control.conference_node import ConferenceNode

        return ConferenceNode()

    def test_join_with_offer_returns_answer(self):
        node = self.make_node()
        info = sample_info()
        offer, info_json = build_offer(info, session_id=3)
        state, answer_text = node.join_with_offer(
            offer.serialize(), info_json, "n0"
        )
        assert state.client == "alice"
        parsed = SessionDescription.parse(answer_text)
        assert parsed.video_sections()
        assert "alice" in node.participants()

    def test_join_rejects_ssrc_mismatch(self):
        node = self.make_node()
        info = sample_info()
        offer, _ = build_offer(info, session_id=3)
        rogue = SimulcastInfo(
            client="alice",
            codec="H264",
            max_streams=3,
            resolutions=(
                ResolutionCapability(Resolution.P720, 1500, 900, 0xBAD),
            ),
        )
        with pytest.raises(ValueError, match="absent from the SDP offer"):
            node.join_with_offer(offer.serialize(), rogue.to_json(), "n0")

    def test_join_rejects_malformed_inputs(self):
        node = self.make_node()
        info = sample_info()
        offer, info_json = build_offer(info, session_id=3)
        with pytest.raises(ValueError):
            node.join_with_offer("garbage", info_json, "n0")
        with pytest.raises(ValueError):
            node.join_with_offer(offer.serialize(), "{broken", "n0")

    @pytest.mark.parametrize(
        "value", ["", "   ", "abc x", "1.5 x", "-1 label:x", f"{2**32} label:x"]
    )
    def test_join_rejects_an_ssrc_line_without_a_32_bit_ssrc(self, value):
        node = self.make_node()
        offer, info_json = build_offer(sample_info(), session_id=3)
        lines = offer.serialize().split("\r\n")
        lines.insert(
            next(i for i, l in enumerate(lines) if l.startswith("a=ssrc:")),
            f"a=ssrc:{value}",
        )
        with pytest.raises(ValueError):
            node.join_with_offer("\r\n".join(lines), info_json, "n0")
        assert "alice" not in node.participants()
