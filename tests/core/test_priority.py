"""Unit tests for stream priority management (Sec. 4.4)."""

import pytest

from repro.core import (
    Bandwidth,
    PriorityPolicy,
    Resolution,
    StreamClass,
    paper_ladder,
    solve,
)
from repro.core.constraints import Problem, Subscription
from repro.core.priority import HOST_BOOST, SPEAKER_BOOST


class TestFactors:
    def test_default_camera_factor_is_one(self):
        assert PriorityPolicy().factor_for("anyone") == 1.0

    def test_speaker_boost(self):
        policy = PriorityPolicy(speaker="S")
        assert policy.factor_for("S") == pytest.approx(SPEAKER_BOOST)

    def test_host_boost(self):
        policy = PriorityPolicy(host="H")
        assert policy.factor_for("H") == pytest.approx(HOST_BOOST)

    def test_speaker_host_stack(self):
        policy = PriorityPolicy(speaker="X", host="X")
        assert policy.factor_for("X") == pytest.approx(
            SPEAKER_BOOST * HOST_BOOST
        )

    def test_screen_class_factor(self):
        policy = PriorityPolicy(stream_classes={"X": StreamClass.SCREEN})
        assert policy.factor_for("X") == pytest.approx(4.0)

    def test_thumbnail_deprioritized(self):
        policy = PriorityPolicy(stream_classes={"X": StreamClass.THUMBNAIL})
        assert policy.factor_for("X") < 1.0


class TestApply:
    def test_apply_scales_only_prioritized_publishers(self):
        ladder = paper_ladder()
        policy = PriorityPolicy(speaker="A")
        weighted = policy.apply({"A": ladder, "B": ladder})
        a_qoe = {s.bitrate_kbps: s.qoe for s in weighted["A"]}
        b_qoe = {s.bitrate_kbps: s.qoe for s in weighted["B"]}
        for rate, qoe in b_qoe.items():
            assert a_qoe[rate] == pytest.approx(qoe * SPEAKER_BOOST)

    def test_speaker_wins_contention(self):
        """With a tight downlink, the speaker's stream is preferred."""
        ladder = paper_ladder()
        policy = PriorityPolicy(speaker="speaker")
        weighted = policy.apply({"speaker": ladder, "other": ladder})
        p = Problem(
            weighted,
            {
                "speaker": Bandwidth(5000, 100),
                "other": Bandwidth(5000, 100),
                "viewer": Bandwidth(100, 900),
            },
            [
                Subscription("viewer", "speaker", Resolution.P720),
                Subscription("viewer", "other", Resolution.P720),
            ],
        )
        s = solve(p)
        s.validate(p)
        speaker_rate = s.assignments["viewer"].get("speaker")
        other_rate = s.assignments["viewer"].get("other")
        assert speaker_rate is not None
        # The speaker gets at least as much bitrate as the other publisher.
        if other_rate is not None:
            assert speaker_rate.bitrate_kbps >= other_rate.bitrate_kbps

    def test_small_streams_survive_competition(self):
        """Sec. 4.4: prefer both-at-reduced-bitrate over dropping one.

        Two publishers compete for a downlink that cannot carry two large
        streams; the concave QoE curve must keep both at reduced bitrates.
        """
        ladder = paper_ladder()
        p = Problem(
            {"P1": ladder, "P2": ladder},
            {
                "P1": Bandwidth(5000, 100),
                "P2": Bandwidth(5000, 100),
                "V": Bandwidth(100, 800),
            },
            [
                Subscription("V", "P1", Resolution.P360),
                Subscription("V", "P2", Resolution.P360),
            ],
        )
        s = solve(p)
        s.validate(p)
        assert len(s.assignments["V"]) == 2
