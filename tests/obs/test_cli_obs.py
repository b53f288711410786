"""Tests for the ``repro obs`` CLI subcommands."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import names
from repro.obs.events import active_event_log
from repro.obs.registry import get_registry


class TestParser:
    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_obs_solve_defaults(self):
        args = build_parser().parse_args(["obs", "solve", "A:1:2", "B:3:4"])
        assert args.format == "prom"
        assert args.metrics_out is None

    def test_trace_out_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["obs", "solve", "A:1:2", "B:3:4", "--trace-out", "t.jsonl"]
            )

    def test_obs_solve_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["obs", "solve", "A:1:2", "B:3:4", "--format", "xml"]
            )


SOLVE_ARGS = ["A:500:3000", "B:5000:3000", "C:5000:3000"]


def _solution_block(out):
    """The last ``Solution after N iteration(s)`` block of ``out``."""
    lines = out[out.rindex("Solution after"):].splitlines()
    end = next(
        i for i, line in enumerate(lines) if line.startswith("  total QoE")
    )
    return lines[: end + 1]


class TestObsSolve:
    def test_prints_all_sections(self, capsys):
        rc = main(["obs", "solve"] + SOLVE_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "publishes" in out
        assert "(engine:" in out
        # The KMR iterations are replayed as a narration, not recorded.
        assert "iteration 1" in out
        assert "step 3 (reduction)" in out
        assert "solution found" in out
        assert "repro.kmr_trace" not in out
        # Per-step wall time stays in the snapshot's span rows.
        assert 'repro_span_seconds_count{span="kmr.solve"} 1' in out
        assert "repro_kmr_solves_total 1" in out

    def test_narration_ends_in_the_solution_repro_solve_prints(self, capsys):
        assert main(["solve"] + SOLVE_ARGS) == 0
        plain = capsys.readouterr().out
        assert main(["obs", "solve"] + SOLVE_ARGS) == 0
        narrated = capsys.readouterr().out
        narration = narrated[narrated.index("kmr narration"):]
        assert "Solution after 2 iteration(s)" in narration
        assert _solution_block(narration) == _solution_block(plain)
        # The replay runs outside the registry: one solve was counted.
        assert "repro_kmr_solves_total 1" in narrated

    def test_instrumentation_restored_afterwards(self, capsys):
        main(["obs", "solve", "A:500:3000", "B:5000:3000"])
        assert not get_registry().enabled
        assert active_event_log() is None

    def test_json_format(self, capsys):
        rc = main(
            ["obs", "solve", "A:500:3000", "B:5000:3000", "--format", "json"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert '"counters"' in out

    def test_writes_artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        rc = main(
            ["obs", "solve"] + SOLVE_ARGS + ["--metrics-out", str(metrics)]
        )
        assert rc == 0
        assert names.KMR_SOLVES in metrics.read_text()

    def test_rejects_single_client(self, capsys):
        assert main(["obs", "solve", "A:500:3000"]) == 2


class TestObsExample:
    def test_missing_example_errors(self, capsys):
        rc = main(["obs", "example", "no_such_example"])
        assert rc == 2
        assert "no_such_example" in capsys.readouterr().err

    def test_runs_script_under_instrumentation(self, tmp_path, capsys):
        # A miniature "example": one KMR solve, written as a script so the
        # test exercises the same runpy path as examples/*.py.
        script = tmp_path / "tiny_meeting.py"
        script.write_text(
            "from repro.core import (Bandwidth, GsoSolver, ProblemBuilder,\n"
            "                        Resolution, paper_ladder)\n"
            "b = ProblemBuilder()\n"
            "b.add_client('A', Bandwidth(500, 3000), paper_ladder())\n"
            "b.add_client('B', Bandwidth(5000, 3000), paper_ladder())\n"
            "b.subscribe('A', 'B', Resolution.P360)\n"
            "b.subscribe('B', 'A', Resolution.P720)\n"
            "print(GsoSolver().solve(b.build()).summary())\n"
        )
        rc = main(["obs", "example", str(script)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro_kmr_solves_total 1" in out
        assert not get_registry().enabled


class TestObsNames:
    def test_lists_every_metric_and_span(self, capsys):
        rc = main(["obs", "names"])
        assert rc == 0
        out = capsys.readouterr().out
        for metric in names.ALL_METRICS:
            assert metric in out
        for span_name in names.ALL_SPANS:
            assert span_name in out


CHAOS_ARGS = ["--meetings", "3", "--duration", "6"]


class TestObsReport:
    def test_text_report_sections(self, capsys):
        rc = main(["obs", "report", "--seed", "1"] + CHAOS_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "slo verdicts:" in out
        assert "kmr_iteration_bound" in out
        assert "events: emitted=" in out

    def test_json_report_payload(self, capsys):
        rc = main(["obs", "report", "--json", "--seed", "1"] + CHAOS_ARGS)
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "bandwidth_collapse"
        assert payload["slo_ok"] is True
        assert payload["events"]["emitted"] > 0
        assert payload["chaos"]["ok"] is True

    def test_events_out_writes_jsonl(self, tmp_path, capsys):
        target = tmp_path / "events.jsonl"
        rc = main(
            ["obs", "report", "--events-out", str(target), "--seed", "2"]
            + CHAOS_ARGS
        )
        assert rc == 0
        from repro.obs import EventLog

        log = EventLog.read_jsonl(target)
        assert len(log) > 0

    def test_unknown_scenario_errors(self, capsys):
        rc = main(["obs", "report", "--scenario", "bogus"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_instrumentation_restored(self, capsys):
        main(["obs", "report", "--seed", "1"] + CHAOS_ARGS)
        assert not get_registry().enabled


class TestObsTimeline:
    def test_timeline_reconstructs_causal_chain(self, capsys):
        rc = main(["obs", "timeline", "chaos-0", "--seed", "1"] + CHAOS_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "ingress_enqueued" in out
        assert "solve_served" in out
        assert "tmmbr_push" in out
        assert "[chaos-0#1]" in out

    def test_timeline_json(self, capsys):
        rc = main(
            ["obs", "timeline", "chaos-0", "--json", "--seed", "1"]
            + CHAOS_ARGS
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meeting"] == "chaos-0"
        assert payload["chains"]
        assert payload["chains"][0]["kinds"][0] == "ingress_enqueued"

    def test_timeline_from_events_file(self, tmp_path, capsys):
        target = tmp_path / "events.jsonl"
        main(
            ["obs", "report", "--events-out", str(target), "--seed", "1"]
            + CHAOS_ARGS
        )
        capsys.readouterr()
        rc = main(
            ["obs", "timeline", "chaos-1", "--events", str(target)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos-1" in out
        assert "ingress_enqueued" in out

    def test_unknown_meeting_prints_no_events(self, capsys):
        rc = main(["obs", "timeline", "ghost", "--seed", "1"] + CHAOS_ARGS)
        assert rc == 0
        assert "no events" in capsys.readouterr().out

    def test_unreadable_events_file_errors_cleanly(self, tmp_path, capsys):
        rc = main(
            ["obs", "timeline", "m", "--events", str(tmp_path / "nope")]
        )
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_schema_events_file_errors_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record":"meta","schema":"bogus/v9"}\n')
        rc = main(["obs", "timeline", "m", "--events", str(bad)])
        assert rc == 2
        assert "unsupported event schema" in capsys.readouterr().err
