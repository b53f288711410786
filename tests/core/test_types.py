"""Unit tests for repro.core.types."""

import pytest

from repro.core.types import (
    PAPER_RESOLUTIONS,
    Resolution,
    StreamSpec,
    streams_at_resolution,
    streams_up_to_resolution,
    validate_feasible_set,
)


class TestResolution:
    def test_ordering_matches_scan_lines(self):
        assert Resolution.P180 < Resolution.P360 < Resolution.P720

    def test_paper_resolutions_are_the_canonical_triple(self):
        assert PAPER_RESOLUTIONS == (
            Resolution.P720,
            Resolution.P360,
            Resolution.P180,
        )

    def test_pixels_assumes_16_9(self):
        assert Resolution.P720.pixels == 1280 * 720
        assert Resolution.P180.pixels == 320 * 180

    def test_str_is_human_readable(self):
        assert str(Resolution.P360) == "360p"


class TestStreamSpec:
    def test_rejects_non_positive_bitrate(self):
        with pytest.raises(ValueError, match="bitrate"):
            StreamSpec(0, Resolution.P360, 10.0)
        with pytest.raises(ValueError, match="bitrate"):
            StreamSpec(-5, Resolution.P360, 10.0)

    def test_rejects_negative_qoe(self):
        with pytest.raises(ValueError, match="QoE"):
            StreamSpec(100, Resolution.P180, -1.0)

    # A non-finite QoE or bitrate used to be accepted, and the DP paths
    # then disagreed on what to pick.
    @pytest.mark.parametrize("qoe", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_qoe(self, qoe):
        with pytest.raises(ValueError, match="QoE"):
            StreamSpec(300, Resolution.P90, qoe)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rejects_non_finite_bitrate(self, rate):
        with pytest.raises(ValueError, match="bitrate"):
            StreamSpec(rate, Resolution.P90, 1.0)

    def test_qoe_per_kbps(self):
        s = StreamSpec(300, Resolution.P180, 300.0)
        assert s.qoe_per_kbps == pytest.approx(1.0)

    def test_hashable_and_equality_ignores_qoe(self):
        a = StreamSpec(500, Resolution.P360, 440.0)
        b = StreamSpec(500, Resolution.P360, 440.0)
        assert a == b
        assert len({a, b}) == 1

    def test_ordering_by_bitrate(self):
        lo = StreamSpec(100, Resolution.P180, 100.0)
        hi = StreamSpec(1500, Resolution.P720, 1200.0)
        assert lo < hi


class TestValidateFeasibleSet:
    def test_sorts_descending_by_bitrate(self):
        streams = [
            StreamSpec(100, Resolution.P180, 100.0),
            StreamSpec(1500, Resolution.P720, 1200.0),
            StreamSpec(600, Resolution.P360, 530.0),
        ]
        ordered = validate_feasible_set(streams)
        assert [s.bitrate_kbps for s in ordered] == [1500, 600, 100]

    def test_rejects_duplicate_bitrates(self):
        streams = [
            StreamSpec(500, Resolution.P360, 440.0),
            StreamSpec(500, Resolution.P180, 300.0),
        ]
        with pytest.raises(ValueError, match="duplicate bitrate"):
            validate_feasible_set(streams)

    def test_rejects_non_monotone_qoe_within_resolution(self):
        streams = [
            StreamSpec(800, Resolution.P360, 100.0),
            StreamSpec(600, Resolution.P360, 530.0),
        ]
        with pytest.raises(ValueError, match="monotone"):
            validate_feasible_set(streams)

    def test_empty_set_is_valid(self):
        assert validate_feasible_set([]) == []


class TestFilters:
    STREAMS = [
        StreamSpec(1500, Resolution.P720, 1200.0),
        StreamSpec(800, Resolution.P360, 700.0),
        StreamSpec(300, Resolution.P180, 300.0),
    ]

    def test_streams_at_resolution(self):
        only = streams_at_resolution(self.STREAMS, Resolution.P360)
        assert [s.bitrate_kbps for s in only] == [800]

    def test_streams_up_to_resolution_caps_subscription(self):
        capped = streams_up_to_resolution(self.STREAMS, Resolution.P360)
        assert {s.resolution for s in capped} == {
            Resolution.P360,
            Resolution.P180,
        }

    def test_streams_up_to_resolution_with_top_cap_keeps_all(self):
        assert len(streams_up_to_resolution(self.STREAMS, Resolution.P720)) == 3
