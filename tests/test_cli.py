"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_client, build_parser, main


class TestClientSpecParsing:
    def test_minimal(self):
        spec = _parse_client("A:5000:1400")
        assert spec.client_id == "A"
        assert spec.uplink_kbps == 5000
        assert spec.downlink_kbps == 1400
        assert spec.loss_rate == 0.0

    def test_with_loss_and_jitter(self):
        spec = _parse_client("dut:800:900:0.3:50")
        assert spec.loss_rate == 0.3
        assert spec.jitter_ms == 50.0

    def test_rejects_malformed(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_client("A:5000")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_client("A:fast:slow")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "A:1:2", "B:3:4"])
        assert args.levels == 5
        assert args.granularity == 10

    def test_meeting_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["meeting", "A:1:2", "--modes", "magic"]
            )


class TestCommands:
    def test_solve_prints_plan(self, capsys):
        rc = main(["solve", "A:5000:1400", "B:5000:3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "publishes" in out
        assert "iteration" in out

    def test_solve_rejects_single_client(self, capsys):
        rc = main(["solve", "A:5000:1400"])
        assert rc == 2

    def test_meeting_runs_and_reports(self, capsys):
        rc = main(
            [
                "meeting",
                "A:3000:3000",
                "B:3000:3000",
                "--duration",
                "12",
                "--warmup",
                "6",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "framerate=" in out
        assert "A <- B" in out

    def test_rollout_prints_days(self, capsys):
        rc = main(
            [
                "rollout",
                "--start",
                "2021-12-19",
                "--end",
                "2021-12-21",
                "--stride",
                "1",
                "--conferences",
                "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2021-12-20" in out

    def test_rollout_rejects_reversed_dates(self, capsys):
        rc = main(
            ["rollout", "--start", "2021-12-21", "--end", "2021-12-19"]
        )
        assert rc == 2


class TestSolveReporting:
    def test_solve_prints_engine_line(self, capsys):
        rc = main(["solve", "A:5000:1400", "B:5000:3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DP table(s) built" in out
        assert "kernel" not in out

    @pytest.mark.parametrize("spec", ["A:nan:3000", "A:5000:inf", "A:-inf:3000"])
    def test_non_finite_bandwidth_is_one_line_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", spec, "B:5000:3000"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("repro solve: error: ")
        assert "bandwidths must be finite" in err
        assert "Traceback" not in err

    def test_zero_granularity_is_one_line_error(self, capsys):
        rc = main(["solve", "A:5000:1400", "B:5000:3000", "--granularity", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro solve: ")
        assert len(err.splitlines()) == 1


class TestPlaceCommands:
    def test_place_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place"])

    def test_place_lists_stats_only(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "--help"])
        assert "{stats}" in capsys.readouterr().out

    def test_place_stats_dumps_load_model(self, capsys):
        rc = main(
            ["place", "stats", "--policy", "best_fit", "--meetings", "4",
             "--budget", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rebalance:" in out
        assert '"loads"' in out

    def test_place_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["place", "stats", "--policy", "round_robin"]
            )
