"""Tests for the ``repro trace`` CLI subcommands."""

import json
import re
from collections import Counter

import pytest

from repro.cli import build_parser, main
from repro.obs.tracing import ALL_STAGES

SMALL = ["--meetings", "2", "--duration", "6", "--seed", "3"]


def _small_run():
    """The run ``SMALL`` names (the commands' default scenario)."""
    from repro.chaos import ChaosConfig, ChaosRunner, get_scenario

    config = ChaosConfig(seed=3, meetings=2, duration_s=6.0)
    runner = ChaosRunner(
        config, get_scenario("bandwidth_collapse").build(3, config),
        scenario="bandwidth_collapse",
    )
    runner.run()
    return runner


class TestParser:
    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_record_defaults(self):
        args = build_parser().parse_args(["trace", "record"])
        assert args.scenario == "bandwidth_collapse"
        assert args.seed == 1
        assert args.out == "events.jsonl"

    def test_show_defaults(self):
        args = build_parser().parse_args(["trace", "show"])
        assert args.limit == 10
        assert args.meeting is None
        assert args.cid is None

    @pytest.mark.parametrize(
        "command",
        [
            ["obs", "timeline", "m", "--events", "e.jsonl"],
            ["obs", "report", "--events-out", "e.jsonl"],
            ["trace", "show", "--events", "e.jsonl"],
            ["trace", "export", "--events", "e.jsonl"],
            ["trace", "profile", "--events", "e.jsonl"],
        ],
    )
    def test_no_command_reads_or_saves_a_second_event_file(self, command):
        # Queries replay the seeded run; ``trace record --out`` is the
        # one export.
        with pytest.raises(SystemExit):
            build_parser().parse_args(command)


class TestRecord:
    def test_writes_events_and_prints_digests(self, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        rc = main(["trace", "record", "--out", str(out)] + SMALL)
        assert rc == 0
        captured = capsys.readouterr().out
        # The forest is assembled here, at query time; the run report
        # carries no digest of its own.
        assert captured.count("trace digest:") == 1
        rows = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert rows[0]["record"] == "meta"
        assert any(r.get("record") == "event" for r in rows)

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        rc = main(
            ["trace", "record", "--scenario", "nope",
             "--out", str(tmp_path / "e.jsonl")]
        )
        assert rc == 2

    def test_assembled_digest_matches_report(self, tmp_path, capsys):
        main(["trace", "record", "--out", str(tmp_path / "e.jsonl")] + SMALL)
        out = capsys.readouterr().out
        digests = {
            line.split()[-1]
            for line in out.splitlines()
            if "digest:" in line
        }
        assert len(digests) == 1, "CLI and report digests must agree"


class TestShow:
    def test_waterfall_of_the_replayed_run(self, capsys):
        rc = main(["trace", "show", "--limit", "3"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace waterfall" in out
        assert out.count("  t=") == 3
        assert "#" in out


class TestShowDecision:
    """``trace show --cid``: one decision, its KMR iterations replayed."""

    RUN = ["--scenario", "bandwidth_collapse", "--seed", "1"]

    @pytest.fixture(scope="class")
    def decisions(self):
        from repro.chaos.runner import ChaosConfig, ChaosRunner
        from repro.chaos.scenarios import get_scenario

        config = ChaosConfig(seed=1)
        schedule = get_scenario("bandwidth_collapse").build(1, config)
        runner = ChaosRunner(config, schedule, scenario="bandwidth_collapse")
        runner.run()
        return runner.plane.decisions

    def test_prints_one_waterfall_and_the_replayed_reductions(
        self, decisions, capsys
    ):
        decision = next(d for d in decisions if d.solution.reduced)
        rc = main(["trace", "show", "--cid", decision.cid] + self.RUN)
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("trace waterfall") == 1
        assert out.splitlines()[1].startswith(
            f"{decision.cid}  trigger={decision.trigger} "
            f"source={decision.source} batch={decision.batch}  t="
        )
        assert f"solution digest: {decision.digest}" in out
        narration = out[out.index("kmr narration"):]
        removed = re.findall(
            r"removing (\S+) from (\S+)'s feasible set", narration
        )
        assert removed == [
            (str(res), pub) for pub, res in decision.solution.reduced
        ]
        assert f"Solution after {decision.solution.iterations} iter" in narration

    def test_unknown_cid_exits_2(self, capsys):
        rc = main(["trace", "show", "--cid", "chaos-0#9999"] + self.RUN)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "chaos-0#9999" in captured.err


class TestLongRun:
    """32 meetings for 120 s emit more events than the ring holds."""

    RUN = [
        "--scenario", "healthy", "--seed", "1",
        "--meetings", "32", "--duration", "120",
    ]

    @pytest.fixture(scope="class")
    def runner(self):
        from repro.chaos import ChaosConfig, ChaosRunner, get_scenario

        config = ChaosConfig(seed=1, meetings=32, duration_s=120.0)
        runner = ChaosRunner(
            config, get_scenario("healthy").build(1, config),
            scenario="healthy",
        )
        runner.run()
        assert runner.events.dropped > 0
        return runner

    def test_profile_counts_every_decision(self, runner, capsys):
        decisions = runner.plane.decisions
        assert main(["trace", "profile", "--json"] + self.RUN) == 0
        table = json.loads(capsys.readouterr().out)
        assert {s: row["count"] for s, row in table.items()} == {
            "delivery": len(decisions),
            "mailbox_dwell": sum(d.trigger == "event" for d in decisions),
            "solve": len(decisions),
        }

    def test_show_lists_a_meetings_decisions_from_its_first(
        self, runner, capsys
    ):
        rc = main(
            ["trace", "show", "--meeting", "chaos-0", "--limit", "2"]
            + self.RUN
        )
        assert rc == 0
        out = capsys.readouterr().out
        heads = [
            line.split()[0] for line in out.splitlines()
            if line.startswith("chaos-0#")
        ]
        # The ring evicted chaos-0#1's whole chain; its decision stays.
        first = [d.cid for d in runner.plane.decisions
                 if d.meeting == "chaos-0"]
        assert heads == first[:2] and heads[0] == "chaos-0#1"
        assert f"... {len(first) - 2} more decisions not shown" in out

    @pytest.mark.parametrize(
        "sizing, note",
        [
            (["--meetings", "32", "--duration", "120"],
             "(the event ring dropped the run's 3511 oldest events, "
             "so the first chain may be cut)"),
            (["--meetings", "2", "--duration", "6"], None),
        ],
    )
    def test_timeline_names_the_events_the_ring_dropped(
        self, capsys, sizing, note
    ):
        rc = main(
            ["obs", "timeline", "chaos-0", "--scenario", "healthy",
             "--seed", "1"] + sizing
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        notes = [line for line in lines if "ring dropped" in line]
        assert notes == ([note] if note else [])
        if note:
            assert lines[1] == note

    def test_timeline_json_counts_the_events_the_ring_dropped(
        self, runner, capsys
    ):
        rc = main(
            ["obs", "timeline", "chaos-0", "--json"] + self.RUN
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["emitted"] == runner.events.emitted
        assert out["dropped"] == runner.events.dropped == 3511

    # chaos-0#1's chain is gone whole; chaos-28#36 lost its enqueue.
    # Neither matters: the decision is the plane's, not the ring's.
    @pytest.mark.parametrize("cid", ["chaos-0#1", "chaos-28#36"])
    def test_a_cid_the_ring_evicted_shows_its_decision(
        self, runner, capsys, cid
    ):
        (decision,) = [d for d in runner.plane.decisions if d.cid == cid]
        rc = main(["trace", "show", "--cid", cid] + self.RUN)
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[1].startswith(f"{cid}  trigger=")
        stage_lines = lines[2:2 + len(decision.stages())]
        assert [
            (line.split()[0], line.split()[-1]) for line in stage_lines
        ] == [
            (s.stage, f"{s.duration_s * 1e3:.2f}ms")
            for s in decision.stages()
        ]
        assert lines[2 + len(decision.stages())] == ""
        assert "=== kmr narration (replayed) ===" in lines


class TestExport:
    def test_chrome_trace_artifact(self, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        rc = main(["trace", "export", "--out", str(out)] + SMALL)
        assert rc == 0
        assert "perfetto" in capsys.readouterr().out.lower()
        payload = json.loads(out.read_text())
        heads = [
            e["args"]["cid"] for e in payload["traceEvents"]
            if e.get("cat") == "decision"
        ]
        assert sorted(heads) == sorted(
            d.cid for d in _small_run().plane.decisions
        )


class TestProfile:
    def test_prints_stage_table(self, capsys):
        rc = main(["trace", "profile"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage latencies" in out
        assert "solve" in out

    def test_json_summarises_every_decisions_stages(self, capsys):
        rc = main(["trace", "profile", "--json"] + SMALL)
        assert rc == 0
        table = json.loads(capsys.readouterr().out)
        stages = Counter(
            span.stage
            for d in _small_run().plane.decisions
            for span in d.stages()
        )
        assert set(table) <= set(ALL_STAGES)
        assert {s: row["count"] for s, row in table.items()} == stages
        for row in table.values():
            assert 0.0 <= row["p50_s"] <= row["p95_s"] <= row["max_s"]
            assert row["mean_s"] <= row["max_s"]

    def test_writes_no_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "profile", "--out", "p.json"])
