"""Tests for timeline reconstruction and report rendering — including
the end-to-end acceptance path: a bandwidth-collapse chaos run whose
per-meeting timeline reads SEMB report -> solve -> TMMBR push ->
subscription change under one correlation id."""

import pytest

from repro.obs.events import (
    INGRESS_ENQUEUED,
    SOLVE_SERVED,
    SUBSCRIPTION_CHANGE,
    TMMBR_PUSH,
    Event,
    EventLog,
)
from repro.obs.report import (
    correlation_chains,
    format_report,
    format_slo_verdicts,
    format_timeline,
    meeting_timeline,
    report_dict,
    timeline_dict,
)
from repro.obs.slo import SloVerdict


def _verdict(name="kmr_iteration_bound", value=0.4, ok=True):
    return SloVerdict(
        name=name, description="", measure="stat:k", threshold=1.0,
        comparator="<=", unit="ratio", deterministic=True,
        paper_ref="Sec. 5", value=value, recent_value=value, ok=ok,
        fast_burn=False,
    )


def _chain(log: EventLog, meeting: str, t: float):
    cid = log.mint(meeting)
    log.emit(INGRESS_ENQUEUED, t=t, meeting=meeting, cid=cid, shard="s0",
             trigger="event")
    log.emit(SOLVE_SERVED, t=t + 0.25, meeting=meeting, cid=cid,
             shard="s0", source="solve")
    log.emit(TMMBR_PUSH, t=t + 0.25, meeting=meeting, cid=cid,
             publishers=3)
    log.emit(SUBSCRIPTION_CHANGE, t=t + 0.25, meeting=meeting, cid=cid,
             changed=2)
    return cid


class TestTimeline:
    def test_meeting_timeline_filters_and_orders(self):
        log = EventLog()
        _chain(log, "b", 2.0)
        _chain(log, "a", 1.0)
        rows = meeting_timeline(log.events, "a")
        assert [e.meeting for e in rows] == ["a"] * 4
        assert [e.t for e in rows] == [1.0, 1.25, 1.25, 1.25]

    def test_equal_times_ordered_by_seq(self):
        events = [
            Event(t=1.0, seq=5, kind=TMMBR_PUSH, meeting="m"),
            Event(t=1.0, seq=2, kind=SOLVE_SERVED, meeting="m"),
        ]
        rows = meeting_timeline(events, "m")
        assert [e.seq for e in rows] == [2, 5]

    def test_correlation_chains_group_by_cid(self):
        log = EventLog()
        c1 = _chain(log, "m", 1.0)
        c2 = _chain(log, "m", 2.0)
        chains = correlation_chains(log.events)
        assert set(chains) == {c1, c2}
        assert [e.kind for e in chains[c1]] == [
            INGRESS_ENQUEUED, SOLVE_SERVED, TMMBR_PUSH, SUBSCRIPTION_CHANGE,
        ]

    def test_format_timeline_renders_chain_blocks(self):
        log = EventLog()
        c1 = _chain(log, "m", 1.0)
        c2 = _chain(log, "m", 2.0)
        text = format_timeline(log.events, "m")
        assert f"[{c1}]" in text
        assert f"[{c2}]" in text
        assert "\n\n" in text  # blank line between chains
        assert "trigger=event" in text

    def test_format_timeline_empty(self):
        assert "no events" in format_timeline([], "ghost")

    def test_timeline_dict_shapes(self):
        log = EventLog()
        cid = _chain(log, "m", 1.0)
        out = timeline_dict(log.events, "m")
        assert out["meeting"] == "m"
        assert len(out["events"]) == 4
        (chain,) = out["chains"]
        assert chain["cid"] == cid
        assert chain["kinds"][0] == INGRESS_ENQUEUED
        assert chain["t_first"] == 1.0
        assert chain["t_last"] == 1.25


class TestSloRendering:
    def test_format_verdicts_table(self):
        text = format_slo_verdicts([
            _verdict(),
            _verdict(name="degraded_serve_rate", value=0.9, ok=False),
        ])
        assert "PASS" in text
        assert "FAIL" in text
        assert "(Sec. 5)" in text

    def test_format_verdicts_empty(self):
        assert format_slo_verdicts([]) == "no SLOs evaluated"

    def test_skip_rendered_for_missing_data(self):
        verdict = _verdict()
        verdict.value = None
        text = format_slo_verdicts([verdict])
        assert "SKIP" in text
        assert "no data" in text


class TestReport:
    def test_report_dict_includes_event_stats(self):
        log = EventLog()
        _chain(log, "m", 1.0)
        out = report_dict("healthy", 3, [_verdict()], log=log)
        assert out["scenario"] == "healthy"
        assert out["slo_ok"] is True
        assert out["events"]["emitted"] == 4
        assert out["events"]["digest"] == log.digest()

    def test_report_dict_flags_failures(self):
        out = report_dict("s", 1, [_verdict(ok=False)])
        assert out["slo_ok"] is False

    def test_format_report_sections(self):
        log = EventLog()
        _chain(log, "m", 1.0)
        text = format_report("s", 1, [_verdict()], log=log,
                             summary="run summary line")
        assert "run summary line" in text
        assert "slo verdicts:" in text
        assert "events: emitted=4" in text


class TestEndToEndTimeline:
    """Acceptance: the slowlink-style scenario's reconstructed timeline."""

    @pytest.fixture(scope="class")
    def runner(self):
        from repro.chaos import ChaosConfig, ChaosRunner, get_scenario

        config = ChaosConfig(seed=1, meetings=4, duration_s=10.0)
        scenario = get_scenario("bandwidth_collapse")
        runner = ChaosRunner(
            config, scenario.build(1, config), scenario=scenario.name
        )
        runner.run()
        return runner

    def test_causal_chain_reconstructed(self, runner):
        chains = correlation_chains(runner.events.for_meeting("chaos-0"))
        full = [
            kinds for kinds in (
                [e.kind for e in chain] for chain in chains.values()
            )
            if kinds[:1] == [INGRESS_ENQUEUED]
            and SOLVE_SERVED in kinds
            and TMMBR_PUSH in kinds
            and SUBSCRIPTION_CHANGE in kinds
        ]
        assert full, "no complete report->solve->push->change chain"

    def test_cids_intact_across_chain(self, runner):
        for event in runner.events.for_meeting("chaos-0"):
            if event.kind in (INGRESS_ENQUEUED, SOLVE_SERVED, TMMBR_PUSH,
                              SUBSCRIPTION_CHANGE):
                assert event.cid.startswith("chaos-0#"), event

    def test_fault_appears_in_timeline_text(self, runner):
        text = format_timeline(runner.events.events, "chaos-0")
        assert "fault_injected" in text
        assert "downlink_collapse" in text
