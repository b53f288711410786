"""Unit tests for repro.core.ladder."""

import pytest

from repro.core.ladder import (
    coarse_ladder,
    make_ladder,
    paper_ladder,
    qoe_utility,
    scale_qoe,
)
from repro.core.priority import verify_small_stream_protection
from repro.core.types import Resolution


class TestPaperLadder:
    def test_has_nine_levels(self):
        assert len(paper_ladder()) == 9

    def test_matches_table1_values(self):
        by_bitrate = {s.bitrate_kbps: s for s in paper_ladder()}
        assert by_bitrate[1500].qoe == 1200.0
        assert by_bitrate[1500].resolution == Resolution.P720
        assert by_bitrate[400].qoe == 360.0
        assert by_bitrate[400].resolution == Resolution.P360
        assert by_bitrate[100].qoe == 100.0
        assert by_bitrate[100].resolution == Resolution.P180

    def test_small_stream_protection_holds(self):
        # The Sec. 4.4 property: QoE/bitrate decreases with bitrate.
        assert verify_small_stream_protection(paper_ladder())


class TestQoeUtility:
    def test_monotone_increasing(self):
        assert qoe_utility(600) > qoe_utility(300)

    def test_ratio_decreasing(self):
        assert qoe_utility(100) / 100 > qoe_utility(1500) / 1500

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            qoe_utility(100, exponent=0.0)
        with pytest.raises(ValueError):
            qoe_utility(100, exponent=1.5)

    def test_scale_factor(self):
        assert qoe_utility(100, scale=2.0) == pytest.approx(
            2 * qoe_utility(100)
        )


class TestMakeLadder:
    def test_fifteen_level_production_ladder(self):
        ladder = make_ladder(levels_per_resolution=5)
        assert len(ladder) == 15
        assert {s.resolution for s in ladder} == {
            Resolution.P720,
            Resolution.P360,
            Resolution.P180,
        }

    def test_bitrates_unique_across_resolutions(self):
        ladder = make_ladder(levels_per_resolution=8)
        rates = [s.bitrate_kbps for s in ladder]
        assert len(rates) == len(set(rates))

    def test_bitrates_within_declared_ranges(self):
        ladder = make_ladder(levels_per_resolution=3)
        for s in ladder:
            if s.resolution == Resolution.P720:
                # allow the -1kbps de-duplication nudge
                assert 890 <= s.bitrate_kbps <= 1500

    def test_protection_property_by_construction(self):
        for levels in (2, 5, 8):
            assert verify_small_stream_protection(
                make_ladder(levels_per_resolution=levels)
            )

    def test_single_level_uses_range_top(self):
        ladder = make_ladder(levels_per_resolution=1)
        p720 = [s for s in ladder if s.resolution == Resolution.P720]
        assert p720[0].bitrate_kbps == 1500

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            make_ladder(levels_per_resolution=0)

    def test_custom_resolutions(self):
        ladder = make_ladder(
            resolutions=[Resolution.P1080, Resolution.P360],
            levels_per_resolution=2,
        )
        assert {s.resolution for s in ladder} == {
            Resolution.P1080,
            Resolution.P360,
        }

    def test_custom_bitrate_range_override(self):
        ladder = make_ladder(
            resolutions=[Resolution.P360],
            levels_per_resolution=2,
            bitrate_ranges={Resolution.P360: (200, 250)},
        )
        assert sorted(s.bitrate_kbps for s in ladder) == [200, 250]


class TestCoarseLadder:
    def test_one_level_per_resolution(self):
        ladder = coarse_ladder()
        assert len(ladder) == 3
        assert len({s.resolution for s in ladder}) == 3


class TestScaleQoe:
    def test_scales_all_weights(self):
        doubled = scale_qoe(paper_ladder(), 2.0)
        base = {s.bitrate_kbps: s.qoe for s in paper_ladder()}
        for s in doubled:
            assert s.qoe == pytest.approx(2 * base[s.bitrate_kbps])

    def test_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            scale_qoe(paper_ladder(), 0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_rejects_non_finite_factor(self, factor):
        # nan slipped past `factor <= 0` and came back as nan weights.
        with pytest.raises(ValueError, match="priority factor"):
            scale_qoe(paper_ladder(), factor)
