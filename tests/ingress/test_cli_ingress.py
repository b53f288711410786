"""The plane's seeded-run CLI: ``repro chaos run`` drives the generated
stream through the ingress plane (there is no ``repro ingress``)."""

import json

import pytest

from repro.chaos import REPORT_SCHEMA
from repro.cli import build_parser, main

ARGS = ["--seed", "7", "--meetings", "2", "--duration", "4"]


class TestParserWiring:
    def test_requires_a_subcommand(self):
        for argv in (["ingress"], ["ingress", "run"], ["chaos"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_run_defaults(self):
        args = build_parser().parse_args(["chaos", "run"])
        assert args.mutations == 2.0
        assert args.json is False


class TestIngressRunCommand:
    def test_run_prints_summary(self, capsys):
        rc = main(["chaos", "run", "--scenario", "healthy", *ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos run: scenario=healthy seed=7" in out
        assert "configurations served:" in out

    def test_run_json_is_canonical_report(self, capsys):
        rc = main(["chaos", "run", "--scenario", "healthy", *ARGS, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["ok"] is True
        assert payload["config"]["mutations_per_meeting"] == 2.0
        assert payload["serves"]
        assert payload["event_digest"]

    def test_run_with_fault_counts_drops(self, capsys):
        rc = main(
            ["chaos", "run", "--scenario", "feedback_loss", *ARGS, "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meetings"]["chaos-0"]["reports_dropped"] > 0
