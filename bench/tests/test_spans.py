import harness
import layers
import spans
from repro.core import solver
from repro.core.constraints import Problem


def traced_round(spec, probes=spans.PROBES):
    tracer = spans.Tracer(probes)
    r = harness.run_round(spec, 1, spec.obs, tracer)
    o = harness.check_round(r, None)
    rows = layers.cost_rows(spec.name, r, tracer)
    return tracer, o, layers.layer_metrics(r, o, tracer, rows)


def test_children_lie_inside_parents_and_shares_sum_to_one(tiny_obs):
    tracer, o, metrics = traced_round(tiny_obs)
    assert o.failed == 0 and not tracer.missing
    for name, start, end, parent, _ in tracer.spans:
        assert end >= start
        if parent >= 0:
            _, p_start, p_end, _, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end, name
    summary = tracer.summary()
    assert all(s >= -1e-9 for s in summary.self_s.values())
    shares = [metrics[f"share.{layer}"] for layer in layers.SHARE_LAYERS]
    assert abs(sum(shares) - 1.0) <= 0.02
    assert metrics["share.obs"] > 0
    assert metrics["core.solves"] == metrics["cluster.cache_misses"] > 0
    assert metrics["net.sim_scheduled"] > metrics["ingress.offered"]


def test_spans_inside_a_decision_carry_its_index(tiny):
    tracer, o, _ = traced_round(tiny)
    decides = [s for s in tracer.spans if s[0] == "ingress.decide"]
    assert [s[4] for s in decides] == list(range(o.counts["decisions"]))
    assert all(s[4] == -1 for s in tracer.spans if s[0] == "ingress.offer")


def test_missing_probe_target_reads_null_and_warns(tiny, capsys):
    probes = tuple(
        ("core.solve", "cluster.pool", "no_such_method") if p[0] == "core.solve" else p
        for p in spans.PROBES
    ) + (("core.gone", "repro.core.no_such_module", "f"),)
    tracer, o, metrics = traced_round(tiny, probes)
    assert o.failed == 0
    assert set(tracer.missing) == {"core.solve", "core.gone"}
    assert "warning: probe core.solve" in capsys.readouterr().err
    assert metrics["core.solve_s"] is None and metrics["core.self_s"] is None
    assert metrics["core.solve_ms_p95"] is None
    assert metrics["core.knapsack_s"] > 0  # its own probe still found its target
    assert metrics["placement.sec_per_cost_fit"] > 0  # falls back to solve_request spans


def test_probes_are_removed_after_the_round(tiny):
    before = (Problem.fingerprint, solver.knapsack_step)
    traced_round(tiny)
    assert (Problem.fingerprint, solver.knapsack_step) == before
