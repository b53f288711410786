"""Tests for timeline reconstruction and report rendering — including
the end-to-end acceptance path: a bandwidth-collapse chaos run whose
per-meeting timeline reads SEMB report -> solve -> TMMBR push ->
subscription change under one correlation id."""

import hashlib
import json
from collections import Counter

import pytest

from repro.obs.events import (
    INGRESS_ENQUEUED,
    SOLVE_SERVED,
    SUBSCRIPTION_CHANGE,
    TMMBR_PUSH,
    Event,
    EventLog,
)
from repro.chaos.report import RunReport
from repro.cli import main
from repro.obs.report import (
    correlation_chains,
    format_timeline,
    meeting_timeline,
    timeline_dict,
)
from repro.obs.slo import SLOS, SloVerdict


def _verdict(name="kmr_iteration_bound", value=0.4, ok=True,
             fast_burn=False):
    return SloVerdict(
        name=name, description="", measure="stat:k", threshold=1.0,
        comparator="<=", unit="ratio", deterministic=True,
        paper_ref="Sec. 5", value=value, recent_value=value, ok=ok,
        fast_burn=fast_burn,
    ).to_dict()


def _summary(*verdicts):
    report = RunReport(scenario="s", seed=1, duration_s=1.0,
                       slo=list(verdicts))
    return report.summary()


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
        assert (out["emitted"], out["dropped"]) == (0, 0)
        assert len(out["events"]) == 4
        (chain,) = out["chains"]
        assert chain["cid"] == cid
        assert chain["kinds"][0] == INGRESS_ENQUEUED
        assert chain["t_first"] == 1.0
        assert chain["t_last"] == 1.25


class TestSloRendering:
    """Verdicts render in :meth:`RunReport.summary`, one line each."""

    def test_format_verdicts_table(self):
        text = _summary(
            _verdict(),
            _verdict(name="degraded_serve_rate", value=0.9, ok=False),
            _verdict(name="stream_interruption_s", value=9.0, ok=False,
                     fast_burn=True),
        )
        assert "SLO PASS kmr_iteration_bound: 0.400 <= 1.0" in text
        assert "SLO FAIL degraded_serve_rate: 0.900 <= 1.0" in text
        assert "SLO BURN stream_interruption_s: 9.000 <= 1.0" in text

    def test_format_verdicts_empty(self):
        assert "SLO " not in _summary()

    def test_skip_rendered_for_missing_data(self):
        text = _summary(_verdict(value=None))
        assert "SLO SKIP kmr_iteration_bound: n/a" in text


#: A small run for the ``obs report`` tests.
SMALL = ["--seed", "1", "--meetings", "2", "--duration", "6"]


class TestReport:
    """``repro obs report``: the run report plus the event log."""

    def test_report_dict_includes_event_stats(self, tmp_path, capsys):
        rc = main(["obs", "report", "--json", "--scenario", "healthy"]
                  + SMALL)
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        events = tmp_path / "events.jsonl"
        rc = main(["trace", "record", "--scenario", "healthy",
                   "--out", str(events)] + SMALL)
        assert rc == 0
        capsys.readouterr()
        header, *rows = [
            json.loads(line) for line in events.read_text().splitlines()
        ]
        assert out["scenario"] == "healthy"
        assert out["seed"] == 1
        assert out["slo_ok"] is True
        assert [v["name"] for v in out["slo"]] == [s.name for s in SLOS]
        assert out["events"]["emitted"] == header["emitted"]
        assert out["events"]["retained"] == len(rows)
        assert out["events"]["kinds"] == dict(
            sorted(Counter(row["kind"] for row in rows).items())
        )
        assert out["events"]["digest"] == hashlib.sha256(
            events.read_bytes()
        ).hexdigest()
        assert out["chaos"]["ok"] is True

    def test_report_dict_flags_failures(self, capsys):
        # One poisoned meeting of one: most serves are fallbacks.
        rc = main(["obs", "report", "--json", "--scenario", "unfixable",
                   "--seed", "1", "--meetings", "1", "--duration", "6"])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert out["slo_ok"] is False
        assert out["chaos"]["ok"] is True

    def test_format_report_sections(self, capsys):
        rc = main(["obs", "report", "--scenario", "healthy"] + SMALL)
        assert rc == 0
        text = capsys.readouterr().out
        assert text.startswith("chaos run: scenario=healthy seed=1")
        assert "  SLO PASS kmr_iteration_bound:" in text
        assert "report digest:" in text
        assert "events: emitted=" in text
        assert "slo verdicts:" not in text


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
        chains = correlation_chains(
            meeting_timeline(runner.events.events, "chaos-0")
        )
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
        for event in meeting_timeline(runner.events.events, "chaos-0"):
            if event.kind in (INGRESS_ENQUEUED, SOLVE_SERVED, TMMBR_PUSH,
                              SUBSCRIPTION_CHANGE):
                assert event.cid.startswith("chaos-0#"), event

    def test_fault_appears_in_timeline_text(self, runner):
        text = format_timeline(runner.events.events, "chaos-0")
        assert "fault_injected" in text
        assert "downlink_collapse" in text
