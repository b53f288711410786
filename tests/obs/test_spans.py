"""Tests for the span timer: one observation per exit, disabled mode."""

import time

import pytest

from repro.obs import names
from repro.obs.registry import enabled_registry, get_registry
from repro.obs.spans import _NULL_SPAN, span


class TestDisabledMode:
    def test_span_is_shared_null_object(self):
        assert span("kmr.solve") is _NULL_SPAN
        assert span("anything.else") is _NULL_SPAN

    def test_null_span_yields_none_and_records_nothing(self):
        with span("kmr.solve") as record:
            assert record is None
        assert get_registry().snapshot()["histograms"] == {}


class TestEnabledMode:
    def test_span_records_duration(self):
        with enabled_registry() as reg:
            with span("kmr.solve"):
                time.sleep(0.002)
            hist = reg.histogram(names.SPAN_SECONDS, span="kmr.solve")
            assert hist.count == 1
            assert 0.002 <= hist.sum < 1.0

    def test_observes_once_per_exit_under_its_own_name(self):
        with enabled_registry() as reg:
            for _ in range(3):
                with span("kmr.solve"):
                    with span("kmr.merge"):
                        pass
            assert reg.histogram(names.SPAN_SECONDS, span="kmr.solve").count == 3
            assert reg.histogram(names.SPAN_SECONDS, span="kmr.merge").count == 3

    def test_exception_still_closes_span(self):
        with enabled_registry() as reg:
            with pytest.raises(ValueError):
                with span("kmr.solve"):
                    raise ValueError("boom")
            assert reg.histogram(names.SPAN_SECONDS, span="kmr.solve").count == 1

    def test_interleaved_spans_of_one_name_keep_their_own_durations(self):
        """Two decisions in flight on one thread, as coroutines leave
        them: A opens, B opens, A closes, B closes.  No shared stack, so
        each records its own wall time."""
        with enabled_registry() as reg:
            a, b = span("ingress.decide"), span("ingress.decide")
            a.__enter__()
            time.sleep(0.002)
            b.__enter__()
            a.__exit__(None, None, None)
            time.sleep(0.010)
            b.__exit__(None, None, None)
            hist = reg.histogram(names.SPAN_SECONDS, span="ingress.decide")
            assert hist.count == 2
            assert 0.002 <= hist.min < 0.010
            assert 0.010 <= hist.max < 1.0
