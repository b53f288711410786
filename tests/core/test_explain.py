"""Tests for the KMR decision tracer."""

import pickle

import pytest

from repro.core import Bandwidth, ProblemBuilder, Resolution, paper_ladder, solve
from repro.core.explain import explain_solve
from repro.core.solver import GsoSolver, SolverConfig

from .test_incremental import GENERATORS

#: One rung down the generators' three-resolution ladders.
_RUNG_DOWN = {
    Resolution.P720: Resolution.P360,
    Resolution.P360: Resolution.P180,
    Resolution.P180: Resolution.P180,
}


def table1_case(bandwidths):
    builder = ProblemBuilder()
    ladder = paper_ladder()
    for client, (up, down) in bandwidths.items():
        builder.add_client(client, Bandwidth(up, down), ladder)
    builder.subscribe("A", "B", Resolution.P360)
    builder.subscribe("A", "C", Resolution.P180)
    builder.subscribe("B", "A", Resolution.P720)
    builder.subscribe("B", "C", Resolution.P360)
    builder.subscribe("C", "B", Resolution.P360)
    builder.subscribe("C", "A", Resolution.P720)
    return builder.build()


#: ``str(explain_solve(...))`` of the three Table 1 cases, character for
#: character: operators read the narration, and CI compares it between
#: the base and head commits, so no refactoring of the loop may move it.
TABLE1_NARRATIONS = {
    "case1_downlink_limited": (
        {"A": (5000, 1400), "B": (5000, 3000), "C": (5000, 500)},
        """\
iteration 1
  step 1 (knapsack): per-subscriber downlink fills
    A (budget 1400kbps, used 1100kbps): B:800kbps@360p, C:300kbps@180p
    B (budget 3000kbps, used 2300kbps): A:1500kbps@720p, C:800kbps@360p
    C (budget 500kbps, used 500kbps): A:400kbps@360p, B:100kbps@180p
  step 2 (merge): per-publisher codec consolidation
    A@720p: 1500kbps to {B}
    A@360p: 400kbps to {C}
    B@360p: 800kbps to {A}
    B@180p: 100kbps to {C}
    C@360p: 800kbps to {B}
    C@180p: 300kbps to {A}
  step 3 (reduction): uplink checks
    A: asked 1900kbps of 5000kbps -> ok
    B: asked 900kbps of 5000kbps -> ok
    C: asked 1100kbps of 5000kbps -> ok
  solution found
Solution after 1 iteration(s)
  A publishes 1500kbps@720p->{B}, 400kbps@360p->{C}
  B publishes 800kbps@360p->{A}, 100kbps@180p->{C}
  C publishes 800kbps@360p->{B}, 300kbps@180p->{A}
  total QoE: 3360.0""",
    ),
    "case2_uplink_limited": (
        {"A": (5000, 5000), "B": (600, 5000), "C": (5000, 5000)},
        """\
iteration 1
  step 1 (knapsack): per-subscriber downlink fills
    A (budget 5000kbps, used 1100kbps): B:800kbps@360p, C:300kbps@180p
    B (budget 5000kbps, used 2300kbps): A:1500kbps@720p, C:800kbps@360p
    C (budget 5000kbps, used 2300kbps): A:1500kbps@720p, B:800kbps@360p
  step 2 (merge): per-publisher codec consolidation
    A@720p: 1500kbps to {B, C}
    B@360p: 800kbps to {A, C}
    C@360p: 800kbps to {B}
    C@180p: 300kbps to {A}
  step 3 (reduction): uplink checks
    A: asked 1500kbps of 5000kbps -> ok
    B: asked 800kbps of 600kbps -> over budget
    C: asked 1100kbps of 5000kbps -> ok
    fixed B@360p: 800 -> 600kbps
  solution found
Solution after 1 iteration(s)
  A publishes 1500kbps@720p->{B,C}
  B publishes 600kbps@360p->{A,C}
  C publishes 800kbps@360p->{B}, 300kbps@180p->{A}
  total QoE: 4460.0""",
    ),
    "case3_uplink_and_downlink_limited": (
        {"A": (5000, 5000), "B": (600, 700), "C": (5000, 5000)},
        """\
iteration 1
  step 1 (knapsack): per-subscriber downlink fills
    A (budget 5000kbps, used 1100kbps): B:800kbps@360p, C:300kbps@180p
    B (budget 700kbps, used 700kbps): A:400kbps@360p, C:300kbps@180p
    C (budget 5000kbps, used 2300kbps): A:1500kbps@720p, B:800kbps@360p
  step 2 (merge): per-publisher codec consolidation
    A@720p: 1500kbps to {C}
    A@360p: 400kbps to {B}
    B@360p: 800kbps to {A, C}
    C@180p: 300kbps to {A, B}
  step 3 (reduction): uplink checks
    A: asked 1900kbps of 5000kbps -> ok
    B: asked 800kbps of 600kbps -> over budget
    C: asked 300kbps of 5000kbps -> ok
    fixed B@360p: 800 -> 600kbps
  solution found
Solution after 1 iteration(s)
  A publishes 1500kbps@720p->{C}, 400kbps@360p->{B}
  B publishes 600kbps@360p->{A,C}
  C publishes 300kbps@180p->{A,B}
  total QoE: 3220.0""",
    ),
}


class TestGoldenNarration:
    @pytest.mark.parametrize("case", sorted(TABLE1_NARRATIONS))
    def test_table1_narration_is_the_recorded_text(self, case):
        bandwidths, text = TABLE1_NARRATIONS[case]
        assert str(explain_solve(table1_case(bandwidths))) == text


class TestExplain:
    def test_trace_matches_plain_solve(self):
        p = table1_case({"A": (5000, 1400), "B": (5000, 3000), "C": (5000, 500)})
        explained = explain_solve(p)
        plain = solve(p)
        assert explained.solution.policies == plain.policies
        assert explained.solution.assignments == plain.assignments
        explained.solution.validate(p)

    def test_trace_narrates_all_steps(self):
        p = table1_case({"A": (5000, 1400), "B": (5000, 3000), "C": (5000, 500)})
        text = str(explain_solve(p))
        assert "step 1 (knapsack)" in text
        assert "step 2 (merge)" in text
        assert "step 3 (reduction)" in text
        assert "solution found" in text

    def test_merge_notes_appear_when_requests_differ(self):
        """In Fig. 5's example, B and C request different 720p bitrates
        from A; the trace calls out the merge."""
        p = table1_case({"A": (5000, 2400), "B": (5000, 3000), "C": (5000, 1600)})
        text = str(explain_solve(p))
        # The merged-from note appears only when rates actually differed;
        # assert the trace machinery produces coherent output either way.
        assert "step 2 (merge)" in text
        assert "to {" in text

    def test_fix_narration(self):
        """Case 2's uplink fix (800 -> 600 kbps) shows up in the trace."""
        p = table1_case({"A": (5000, 5000), "B": (600, 5000), "C": (5000, 5000)})
        text = str(explain_solve(p))
        assert "over budget" in text
        assert "fixed B@360p: 800 -> 600kbps" in text

    def test_reduction_narration(self):
        from repro.core.constraints import Problem, Subscription

        ladder = paper_ladder()
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(500, 100), "B": Bandwidth(100, 5000)},
            [Subscription("B", "A", Resolution.P720)],
        )
        explained = explain_solve(p)
        text = str(explained)
        assert "unfixable: removing 720p from A's feasible set" in text
        assert "iteration 2" in text
        explained.solution.validate(p)


class TestExplainIsTheSolversLoop:
    """The narration's solution is the controller's, byte for byte, under
    every input the solver takes."""

    @pytest.mark.parametrize("sticky", [False, True], ids=["cold", "incumbent"])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_solution_byte_identical_to_gso_solver(self, name, sticky):
        gen = GENERATORS[name]
        cfg = SolverConfig(granularity_kbps=25, stickiness=0.5)
        incumbent = None
        if sticky:
            # Hold everyone one rung down from a first solve, so the
            # stickiness bonus has answers to change.
            first = GsoSolver(cfg).solve(gen())
            incumbent = {
                (sub, pub): _RUNG_DOWN[stream.resolution]
                for sub, per_pub in first.assignments.items()
                for pub, stream in per_pub.items()
            }
        want = GsoSolver(cfg).solve(gen(), incumbent)
        if sticky:
            assert want != GsoSolver(cfg).solve(gen()), "incumbent had no effect"
        got = explain_solve(gen(), cfg, incumbent).solution
        assert pickle.dumps(got) == pickle.dumps(want)

    def test_exhaustive_step1_is_honoured(self, monkeypatch):
        p = table1_case({"A": (5000, 1400), "B": (5000, 3000), "C": (5000, 500)})
        monkeypatch.setattr(
            "repro.core.knapsack.CapacityProfile",
            lambda *a, **k: pytest.fail("DP reached under exhaustive_step1"),
        )
        cfg = SolverConfig(exhaustive_step1=True)
        got = explain_solve(p, cfg).solution
        assert pickle.dumps(got) == pickle.dumps(GsoSolver(cfg).solve(p))

    def test_iteration_cap_raises_like_the_solver(self):
        p = table1_case({"A": (500, 3000), "B": (5000, 3000), "C": (5000, 3000)})
        assert GsoSolver().solve(p).iterations > 1
        cfg = SolverConfig(max_iterations=1)
        with pytest.raises(RuntimeError, match="within 1 iterations"):
            GsoSolver(cfg).solve(p)
        with pytest.raises(RuntimeError, match="within 1 iterations"):
            explain_solve(p, cfg)
