"""Tests for the ``repro trace`` CLI subcommands."""

import json
import re
from collections import Counter

import pytest

from repro.cli import build_parser, main
from repro.obs.events import EventLog
from repro.obs.tracing import ALL_STAGES, assemble_trees

SMALL = ["--meetings", "2", "--duration", "6", "--seed", "3"]


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
        assert args.events is None
        assert args.cid is None


class TestRecord:
    def test_writes_events_and_prints_digests(self, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        rc = main(["trace", "record", "--out", str(out)] + SMALL)
        assert rc == 0
        captured = capsys.readouterr().out
        assert "trace digest:" in captured
        assert "report trace digest:" in captured
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
    def test_waterfall_from_recorded_events(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        main(["trace", "record", "--out", str(events)] + SMALL)
        capsys.readouterr()
        rc = main(["trace", "show", "--events", str(events), "--limit", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace waterfall" in out
        assert "#" in out

    def test_missing_events_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(
            ["trace", "show", "--events", str(tmp_path / "missing.jsonl")]
        )
        assert rc == 2


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
        assert f"{decision.cid} (complete)" in out
        assert f"source: {decision.source}" in out
        assert decision.digest in out
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

    def test_cid_with_an_events_file_exits_2(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        main(["trace", "record", "--out", str(events)] + SMALL)
        capsys.readouterr()
        rc = main(
            ["trace", "show", "--cid", "chaos-0#1", "--events", str(events)]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--events" in captured.err


class TestExport:
    def test_chrome_trace_artifact(self, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        rc = main(["trace", "export", "--out", str(out)] + SMALL)
        assert rc == 0
        assert "perfetto" in capsys.readouterr().out.lower()
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]


class TestProfile:
    def test_prints_stage_table(self, capsys):
        rc = main(["trace", "profile"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage latencies" in out
        assert "solve" in out

    def test_json_summarises_the_critical_paths(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(["trace", "record", "--out", str(log)] + SMALL) == 0
        capsys.readouterr()
        rc = main(["trace", "profile", "--json", "--events", str(log)])
        assert rc == 0
        table = json.loads(capsys.readouterr().out)
        trees = assemble_trees(EventLog.read_jsonl(log).events).trees()
        spans = Counter(
            span.stage
            for tree in trees
            for node in tree.walk()
            for span in node.critical_path()
        )
        assert set(table) <= set(ALL_STAGES)
        assert {s: row["count"] for s, row in table.items()} == spans
        for row in table.values():
            assert 0.0 <= row["p50_s"] <= row["p95_s"] <= row["max_s"]
            assert row["mean_s"] <= row["max_s"]

    def test_writes_no_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "profile", "--out", "p.json"])
