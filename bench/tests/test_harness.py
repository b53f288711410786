import json

import harness
import run
import workloads


def test_rounds_reproduce_the_first_and_pass_the_gate(tiny):
    outcomes, _ = run.measure(tiny, 1, seconds=0, trace=False)
    (rounds,) = outcomes.values()
    assert len(rounds) == run.MIN_ROUNDS
    assert all(o.failed == 0 and not o.problems for o in rounds)
    assert len({o.decisions_digest for o in rounds}) == 1
    assert rounds[0].counts["shed"] == 0 and rounds[0].counts["tmmbr_packets"] > 0
    assert rounds[0].counts["decisions"] == len(rounds[0].decision_ms) > 0


def test_obs_on_and_off_decide_identically(tiny_obs, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    outcomes, traced = run.measure(tiny_obs, 1, seconds=0, trace=True)
    assert set(outcomes) == {(True, True), (False, True), (False, False)}
    everything = [o for rounds in outcomes.values() for o in rounds]
    assert all(o.failed == 0 for o in everything)
    assert len({o.decisions_digest for o in everything}) == 1
    assert outcomes[(False, True)][0].counts["obs_events"] > 0
    assert outcomes[(False, False)][0].counts["obs_events"] == 0
    metrics = run.per_layer(tiny_obs, outcomes, traced)
    assert {"obs.overhead_share", "trace.overhead_share"} <= set(metrics)


def test_gate_catches_a_stale_solution_and_a_bad_packet(tiny):
    r = harness.run_round(tiny, 1, False)
    r.plane.decisions[0].digest = "0" * 16  # what a stale cache would serve
    push = r.backend.pushes[0]
    push.data = push.data[:-4] + bytes(4)  # last entry now says "stop"
    o = harness.check_round(r, None)
    assert o.failed >= 2
    assert any("fresh solve" in p for p in o.problems)
    assert any("TMMBR" in p for p in o.problems)


def test_later_round_must_match_the_first(tiny):
    first = harness.check_round(harness.run_round(tiny, 1, False), None)
    other = harness.check_round(harness.run_round(tiny, 2, False), first)
    assert other.failed > 0 and other.problems


def test_result_line_matches_the_contract(tiny, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "SPECS", workloads.SPECS + (tiny,))
    contract = run.load_contract()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in contract[key]]
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert (tmp_path / "trace-tiny.json").exists() and (tmp_path / "cost_fit-tiny.csv").exists()
