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

    def test_cluster_command_is_gone(self, capsys):
        # The fleet solves each conference directly (``repro rollout``).
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["cluster", "run"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'cluster'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", [["solve"], ["obs", "solve"]])
    def test_duplicate_client_id_is_one_line_error(self, command, capsys):
        # Keyed by id, the second A would silently replace the first.
        rc = main(command + ["A:500:500", "B:3000:3000", "A:9000:9000"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert err == "repro solve: duplicate client ids\n"
        assert "publishes" not in out


class TestMeetingLinkErrors:
    @pytest.mark.parametrize("jitter", ["inf", "nan", "-50"])
    def test_bad_jitter_is_one_line_error(self, jitter, capsys):
        # inf would raise ZeroDivisionError deep in the simulation; nan and
        # -50 would run as no jitter.
        rc = main(["meeting", f"A:3000:3000:0:{jitter}", "B:3000:3000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro meeting: jitter_ms must be finite and non-negative")
        assert len(err.splitlines()) == 1


class TestMeetingNothingMeasured:
    def test_no_measured_view_is_one_line_error(self, capsys):
        # A window with no view used to print all-zero means (0.0 fps,
        # quality 0.0) and exit 0, as if the meeting had stalled.
        rc = main([
            "meeting", "A:3000:3000", "B:3000:3000", "--modes", "gso",
            "--duration", "6", "--warmup", "1",
        ])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "framerate=" not in out
        assert err.startswith("repro meeting: no view was measured")
        assert len(err.splitlines()) == 1


class TestChaosSizing:
    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--duration", "nan", "duration_s"),
            ("--duration", "inf", "duration_s"),
            ("--report-interval", "inf", "report_interval_s"),
            ("--mean-size", "nan", "mean_size"),
            ("--mutations", "nan", "mutations_per_meeting"),
            ("--mutations", "-1", "mutations_per_meeting"),
        ],
    )
    def test_bad_sizing_is_a_one_line_error(self, flag, value, field, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "run", flag, value])
        # Exit 2 is a usage error; 1 would claim a violated invariant.
        assert exit_info.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith(f"repro chaos: {field} must be ")
        assert len(message.splitlines()) == 1

    def test_zero_shards_is_a_one_line_error(self, capsys):
        # Refused with the other sizing errors, before a cluster is built.
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "run", "--shards", "0"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "repro chaos: need at least one shard\n"
        )

    @pytest.mark.parametrize(
        "command", [["chaos", "soak", "--seeds", "1"], ["obs", "report"],
                    ["trace", "record"]],
    )
    def test_zero_shards_is_one_line_on_every_chaos_command(
        self, command, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--shards", "0"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "repro chaos: need at least one shard\n"
        )
