"""The stage budgets judge every plane decision, once.

The plane attributes each decision's critical-path stages at commit
(``Decision.stages()``).  Two properties pin that attribution:

* it equals ``TraceTree.critical_path()`` of the decision's cid, the
  query-time view assembled from the event log, on every scenario;
* it covers the whole run, where the event-log ring keeps only the tail
  of a long one.

``repro trace show --cid`` assembles only its decision's meeting: trees
never cross meetings, so that meeting's events alone assemble the same
trees.
"""

import functools

import pytest

import repro.chaos.runner as chaos_runner
from repro.chaos import ChaosConfig, ChaosRunner, get_scenario, list_scenarios
from repro.obs.tracing import assemble_trees


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


def _assert_plane_matches_trees(runner):
    assert runner.events.dropped == 0  # the log holds every chain
    nodes = {
        node.cid: node
        for tree in assemble_trees(runner.events.events).trees()
        for node in tree.walk()
    }
    assert runner.plane.decisions
    for decision in runner.plane.decisions:
        assert decision.stages() == nodes[decision.cid].critical_path(), (
            decision.cid
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "scenario", [s.name for s in list_scenarios()]
)
def test_plane_attribution_equals_the_trees(scenario, seed):
    _assert_plane_matches_trees(_default_run(scenario, seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "scenario", [s.name for s in list_scenarios()]
)
def test_one_meeting_assembles_its_own_trees(scenario, seed):
    log = _default_run(scenario, seed).events
    whole = assemble_trees(log.events)
    meetings = sorted({e.meeting for e in log.events} - {""})
    assert meetings
    for meeting in meetings:
        alone = assemble_trees(log.for_meeting(meeting)).trees()
        assert [t.to_dict() for t in alone] == [
            t.to_dict() for t in whole.trees(meeting)
        ], meeting


@pytest.mark.parametrize(
    "scenario", [s.name for s in list_scenarios()]
)
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


def test_time_triggered_decisions_match_their_trees():
    runner = _run(
        "kitchen_sink", seed=1, meetings=12, duration_s=40.0,
        mutations_per_meeting=1.0,
    )
    assert any(d.trigger == "time" for d in runner.plane.decisions)
    _assert_plane_matches_trees(runner)


def test_shed_decisions_match_their_trees():
    # One solve in flight across the plane: concurrent windows are shed.
    runner = _run(
        "healthy", seed=1, meetings=12, duration_s=10.0,
        max_solves_per_round=1,
    )
    assert any(d.source == "shed" for d in runner.plane.decisions)
    _assert_plane_matches_trees(runner)


def test_stage_budgets_judge_every_decision_when_the_log_overflows(
    monkeypatch,
):
    """32 meetings for 120 s emit more events than the ring holds: the
    trees of the early decisions are gone, their stages are not."""
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
