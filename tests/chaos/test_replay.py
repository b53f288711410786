"""Replay, don't record: a committed decision's KMR solve is re-derived
from the ``Problem`` the plane kept for it.

This property is what licenses having no in-band KMR trace: for every
decision the cluster solved (or served from its cache), narrating the
solve again with ``explain_solve`` lands on the digest that was served.
"""

import pytest

from repro.chaos.runner import ChaosConfig, ChaosRunner
from repro.chaos.scenarios import list_scenarios
from repro.cluster import SOURCE_CACHE, SOURCE_SOLVE
from repro.core.explain import explain_solve
from repro.core.solution import solution_digest

SCENARIOS = [s.name for s in list_scenarios()]


def _run(scenario, seed):
    config = ChaosConfig(seed=seed)
    runner = ChaosRunner(
        config, scenario.build(seed, config), scenario=scenario.name
    )
    runner.run()
    return runner


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scenario", list_scenarios(), ids=SCENARIOS)
def test_every_solved_decision_replays_to_its_digest(scenario, seed):
    runner = _run(scenario, seed)
    solver_config = runner.cluster.config.solver
    solved = [
        d
        for d in runner.plane.decisions
        if d.source in (SOURCE_SOLVE, SOURCE_CACHE)
    ]
    assert solved, "the run committed no solved decision"
    for decision in solved:
        replayed = explain_solve(decision.payload, solver_config)
        assert solution_digest(replayed.solution) == decision.digest, (
            f"{decision.cid}: replay diverged from the served solution"
        )
