"""Tests for stream-level fault injection (``repro.ingress.faults``)."""

import pytest

from repro.chaos import faults as chaos_faults
from repro.chaos.faults import Fault, FaultSchedule
from repro.chaos.runner import stream_faults
from repro.ingress.events import LinkEstimate, SembReport
from repro.ingress.faults import (
    DELAY,
    DELAY_SEMB,
    DELIVER,
    DROP,
    DROP_SEMB,
    StreamFault,
    StreamFaultInjector,
)


def _semb(at_s, meeting="m"):
    return SembReport(at_s=at_s, meeting=meeting)


class TestStreamFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamFault("explode")
        with pytest.raises(ValueError):
            StreamFault(DROP_SEMB, start_s=5.0, end_s=1.0)
        with pytest.raises(ValueError):
            StreamFault(DELAY_SEMB, delay_s=0.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": DELAY_SEMB, "delay_s": float("nan")},
            {"kind": DELAY_SEMB, "delay_s": float("inf")},
            {"kind": DELAY_SEMB, "start_s": float("nan"), "delay_s": 1.0},
            {"kind": DROP_SEMB, "start_s": float("-inf")},
            {"kind": DROP_SEMB, "end_s": float("nan")},
        ],
    )
    def test_rejects_non_finite_times(self, fields):
        with pytest.raises(ValueError):
            StreamFault(**fields)

    def test_open_ended_window_stays_legal(self):
        assert StreamFault(DROP_SEMB, start_s=2.0).end_s == float("inf")

    def test_window_is_half_open(self):
        fault = StreamFault(DROP_SEMB, start_s=1.0, end_s=3.0)
        assert not fault.matches(_semb(0.999))
        assert fault.matches(_semb(1.0))
        assert fault.matches(_semb(2.999))
        assert not fault.matches(_semb(3.0))

    def test_only_semb_matches(self):
        fault = StreamFault(DROP_SEMB)
        assert fault.matches(_semb(1.0))
        assert not fault.matches(LinkEstimate(at_s=1.0, meeting="m"))

    def test_meeting_filter(self):
        fault = StreamFault(DROP_SEMB, meeting="a")
        assert fault.matches(_semb(1.0, meeting="a"))
        assert not fault.matches(_semb(1.0, meeting="b"))
        wildcard = StreamFault(DROP_SEMB, meeting="")
        assert wildcard.matches(_semb(1.0, meeting="b"))


class TestStreamFaultInjector:
    def test_deliver_by_default(self):
        injector = StreamFaultInjector()
        assert injector.disposition(_semb(1.0)) == (DELIVER, 0.0)

    def test_drop_wins_over_delay(self):
        injector = StreamFaultInjector(
            [
                StreamFault(DROP_SEMB, start_s=0.0, end_s=10.0),
                StreamFault(DELAY_SEMB, start_s=0.0, end_s=10.0, delay_s=2.0),
            ]
        )
        assert injector.disposition(_semb(1.0)) == (DROP, 0.0)

    def test_overlapping_delays_compound(self):
        injector = StreamFaultInjector(
            [
                StreamFault(DELAY_SEMB, start_s=0.0, end_s=10.0, delay_s=1.5),
                StreamFault(DELAY_SEMB, start_s=0.0, end_s=5.0, delay_s=0.5),
            ]
        )
        assert injector.disposition(_semb(1.0)) == (DELAY, 2.0)
        assert injector.disposition(_semb(7.0)) == (DELAY, 1.5)


class TestFromFaultSchedule:
    def test_maps_report_faults_only(self):
        schedule = FaultSchedule(
            [
                Fault(at_s=2.0, kind=chaos_faults.DROP_REPORT,
                      target="chaos-0", factor=3.0),
                Fault(at_s=4.0, kind=chaos_faults.DELAY_REPORT,
                      target="chaos-1", factor=2.0),
                Fault(at_s=5.0, kind=chaos_faults.DOWNLINK_COLLAPSE,
                      target="chaos-0", factor=0.5),
            ]
        )
        out = stream_faults(schedule, report_interval_s=1.0)
        assert len(out) == 2
        drop, delay = out
        assert drop.kind == DROP_SEMB
        assert drop.meeting == "chaos-0"
        assert (drop.start_s, drop.end_s) == (2.0, 5.0)
        assert delay.kind == DELAY_SEMB
        assert delay.meeting == "chaos-1"
        assert (delay.start_s, delay.end_s) == (4.0, 5.0)
        assert delay.delay_s == 2.0

    def test_factor_floors_at_one_interval(self):
        schedule = FaultSchedule(
            [
                Fault(at_s=1.0, kind=chaos_faults.DROP_REPORT,
                      target="m", factor=0.0),
            ]
        )
        (drop,) = stream_faults(schedule, report_interval_s=2.0)
        assert (drop.start_s, drop.end_s) == (1.0, 3.0)

    def test_untargeted_fault_hits_the_default_meeting(self):
        schedule = FaultSchedule(
            [Fault(at_s=1.0, kind=chaos_faults.DROP_REPORT, factor=1.0)]
        )
        (everyone,) = stream_faults(schedule)
        (first,) = stream_faults(schedule, default_meeting="chaos-0")
        assert (everyone.meeting, first.meeting) == ("", "chaos-0")
