"""Tests for the typed event stream (``repro.ingress.events``)."""

import pytest

from repro.chaos.world import ChaosWorld
from repro.ingress.events import (
    ALL_STREAM_KINDS,
    KIND_SEMB,
    LinkEstimate,
    SembReport,
    StreamConfig,
    generate_stream,
    sort_stream,
)


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(duration_s=0)
        with pytest.raises(ValueError):
            StreamConfig(report_interval_s=0)
        with pytest.raises(ValueError):
            StreamConfig(report_jitter=1.0)
        with pytest.raises(ValueError):
            StreamConfig(mutations_per_meeting=-1)

    @pytest.mark.parametrize(
        "field",
        ["duration_s", "report_interval_s", "mutations_per_meeting"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_refuses_non_finite_sizing(self, field, value):
        # inf duration used to hang generate_stream; nan duration or
        # interval yielded a 4-event stream; nan mutations died converting
        # NaN to an integer.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            StreamConfig(**{field: value})


class TestGenerateStream:
    def _stream(self, seed=3, **kw):
        world = ChaosWorld(seed=seed, meetings=3, mean_size=4.0)
        return generate_stream(
            seed, world, StreamConfig(duration_s=8.0, **kw)
        ), world

    def test_same_seed_same_stream(self):
        a, _ = self._stream(seed=3)
        b, _ = self._stream(seed=3)
        assert a == b

    def test_different_seed_different_stream(self):
        a, _ = self._stream(seed=3)
        b, _ = self._stream(seed=4)
        assert a != b

    def test_sequence_numbers_are_total_order(self):
        stream, _ = self._stream()
        assert [e.seq for e in stream] == list(range(len(stream)))
        keyed = [(e.at_s, e.meeting, e.kind) for e in stream]
        assert keyed == sorted(keyed)

    def test_events_stay_inside_the_horizon(self):
        stream, world = self._stream()
        assert stream, "seeded stream must not be empty"
        assert all(0.0 <= e.at_s <= 8.0 for e in stream)
        assert {e.kind for e in stream} <= set(ALL_STREAM_KINDS)
        assert {e.meeting for e in stream} <= set(world.meeting_ids)

    def test_every_meeting_reports(self):
        stream, world = self._stream(mutations_per_meeting=0.0)
        assert all(e.kind == KIND_SEMB for e in stream)
        reporters = {e.meeting for e in stream}
        assert reporters == set(world.meeting_ids)

    def test_stream_independent_of_meeting_iteration_order(self):
        # Per-meeting RNGs are keyed by (seed, meeting): each meeting's
        # own sub-stream must not depend on how many meetings exist.
        small = ChaosWorld(seed=5, meetings=2, mean_size=4.0)
        large = ChaosWorld(seed=5, meetings=4, mean_size=4.0)
        cfg = StreamConfig(duration_s=6.0, mutations_per_meeting=0.0)
        a = [
            (e.at_s, e.meeting)
            for e in generate_stream(5, small, cfg)
            if e.meeting == "chaos-0"
        ]
        b = [
            (e.at_s, e.meeting)
            for e in generate_stream(5, large, cfg)
            if e.meeting == "chaos-0"
        ]
        assert a == b


class TestSortStream:
    def test_orders_by_time_then_sequence(self):
        events = [
            SembReport(at_s=2.0, meeting="m", seq=3),
            LinkEstimate(at_s=1.0, meeting="m", seq=2),
            SembReport(at_s=1.0, meeting="m", seq=1),
        ]
        assert [e.seq for e in sort_stream(events)] == [1, 2, 3]
