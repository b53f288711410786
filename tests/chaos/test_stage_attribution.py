"""The stage budgets judge every plane decision, once.

The plane attributes each decision's critical-path stages at commit
(``Decision.stages()``), the run's one stage attribution.  These tests
pin its shape on every scenario, and that every reader of it — the
stage SLOs, ``repro trace profile``, and the ``trace show``/``trace
export`` renderings — covers every decision of the run, where the
event-log ring keeps only the tail of a long one.
"""

import functools
import json

import pytest

import repro.chaos.runner as chaos_runner
from repro.chaos import ChaosConfig, ChaosRunner, get_scenario, list_scenarios
from repro.cli import main
from repro.obs.tracing import chrome_trace, format_waterfall

SCENARIOS = [s.name for s in list_scenarios()]


def _run(scenario, **config):
    cfg = ChaosConfig(**config)
    runner = ChaosRunner(
        cfg, get_scenario(scenario).build(cfg.seed, cfg), scenario=scenario
    )
    runner.run()
    return runner


@functools.lru_cache(maxsize=None)
def _default_run(scenario, seed):
    return _run(scenario, seed=seed)


def _assert_stages_cover_each_decision(decisions):
    assert decisions
    for d in decisions:
        spans = d.stages()
        start = d.enqueued_at_s if d.trigger == "event" else d.closed_at_s
        assert spans[0].start_s == start, d.cid
        assert spans[-1].end_s == d.decided_at_s, d.cid
        for left, right in zip(spans, spans[1:]):
            assert left.end_s == right.start_s, d.cid
        assert all(s.duration_s >= 0 for s in spans), d.cid


def _assert_waterfall_lists_every_decision(decisions):
    text = format_waterfall(decisions, limit=0)
    rows = [line.split()[0] for line in text.splitlines() if "  t=" in line]
    assert sorted(rows) == sorted(d.cid for d in decisions)
    assert len(set(rows)) == len(rows)
    stage_lines = [line for line in text.splitlines() if "|" in line]
    assert len(stage_lines) == sum(len(d.stages()) for d in decisions)


def _assert_export_partitions_every_decision(payload, decisions):
    slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    heads = [e for e in slices if e["cat"] == "decision"]
    assert sorted(e["args"]["cid"] for e in heads) == sorted(
        d.cid for d in decisions
    )
    assert len({(e["pid"], e["tid"]) for e in heads}) == len(heads)
    lanes = {}
    for e in slices:
        if e["cat"] == "stage":
            lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    by_cid = {d.cid: d for d in decisions}
    for head in heads:
        stages = lanes.pop((head["pid"], head["tid"]))
        assert {s["args"]["cid"] for s in stages} == {head["args"]["cid"]}
        assert [s["name"] for s in stages] == [
            span.stage for span in by_cid[head["args"]["cid"]].stages()
        ]
        assert stages[0]["ts"] == head["ts"]
        for left, right in zip(stages, stages[1:]):
            assert left["ts"] + left["dur"] == pytest.approx(
                right["ts"], abs=1e-3
            )
        assert stages[-1]["ts"] + stages[-1]["dur"] == pytest.approx(
            head["ts"] + head["dur"], abs=1e-3
        )
    assert not lanes


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_stages_run_from_enqueue_or_close_to_commit(scenario, seed):
    _assert_stages_cover_each_decision(
        _default_run(scenario, seed).plane.decisions
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_waterfall_lists_every_decision_once(scenario, seed):
    _assert_waterfall_lists_every_decision(
        _default_run(scenario, seed).plane.decisions
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_export_stage_slices_partition_every_decision(scenario, seed):
    decisions = _default_run(scenario, seed).plane.decisions
    _assert_export_partitions_every_decision(
        chrome_trace(decisions), decisions
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_stage_latencies_are_every_decisions_stages(scenario):
    # What the stage budgets judge and ``repro trace profile`` tabulates.
    runner = _default_run(scenario, 1)
    samples = runner.stage_latencies()
    assert list(samples) == sorted(samples)
    expected = {}
    for decision in runner.plane.decisions:
        for stage_span in decision.stages():
            expected.setdefault(stage_span.stage, []).append(
                (stage_span.start_s, stage_span.duration_s)
            )
    assert samples == expected
    assert sum(map(len, samples.values())) == sum(
        len(d.stages()) for d in runner.plane.decisions
    ) > 0


def test_time_triggered_decisions_solve_from_their_ceiling():
    runner = _run(
        "kitchen_sink", seed=1, meetings=12, duration_s=40.0,
        mutations_per_meeting=1.0,
    )
    timed = [d for d in runner.plane.decisions if d.trigger == "time"]
    assert timed
    for d in timed:
        assert [s.stage for s in d.stages()] == ["solve", "delivery"]
    _assert_stages_cover_each_decision(runner.plane.decisions)


def test_shed_decisions_name_a_zero_length_shed_stage():
    # One solve in flight across the plane: concurrent windows are shed.
    runner = _run(
        "healthy", seed=1, meetings=12, duration_s=10.0,
        max_solves_per_round=1,
    )
    shed = [d for d in runner.plane.decisions if d.source == "shed"]
    assert shed
    for d in shed:
        (span,) = [s for s in d.stages() if s.stage == "shed"]
        assert span.start_s == span.end_s == d.closed_at_s
    _assert_stages_cover_each_decision(runner.plane.decisions)


class TestLongRun:
    """32 meetings for 120 s emit more events than the ring holds; every
    reader of the stages still covers every decision."""

    RUN = [
        "--scenario", "healthy", "--seed", "1",
        "--meetings", "32", "--duration", "120",
    ]

    @pytest.fixture(scope="class")
    def runner(self):
        runner = _run("healthy", seed=1, meetings=32, duration_s=120.0)
        assert runner.events.dropped > 0
        return runner

    def test_stage_budgets_judge_every_decision(self, monkeypatch):
        judged = {}
        evaluate = chaos_runner.evaluate_slos

        def spy(**kwargs):
            judged.update(kwargs["stage_latencies"])
            return evaluate(**kwargs)

        monkeypatch.setattr(chaos_runner, "evaluate_slos", spy)
        runner = _run("healthy", seed=1, meetings=32, duration_s=120.0)
        decisions = runner.plane.decisions
        assert runner.events.dropped > 0
        assert len(decisions) == 2571
        counts = {stage: len(samples) for stage, samples in judged.items()}
        assert counts == {
            "delivery": len(decisions),
            "mailbox_dwell": sum(d.trigger == "event" for d in decisions),
            "solve": len(decisions),
        }

    def test_stages_cover_each_decision(self, runner):
        _assert_stages_cover_each_decision(runner.plane.decisions)

    def test_show_lists_every_decision(self, runner, capsys):
        assert main(["trace", "show", "--limit", "0"] + self.RUN) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace waterfall — healthy seed=1\n")
        body = out.split("\n", 1)[1]
        assert body == format_waterfall(runner.plane.decisions) + "\n"
        _assert_waterfall_lists_every_decision(runner.plane.decisions)

    def test_export_partitions_every_decision(self, runner, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["trace", "export", "--out", str(out)] + self.RUN) == 0
        payload = json.loads(out.read_text())
        assert payload == chrome_trace(runner.plane.decisions)
        _assert_export_partitions_every_decision(
            payload, runner.plane.decisions
        )
