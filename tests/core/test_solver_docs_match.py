"""The solver-internals guide and the solver must not drift apart.

``docs/SOLVER.md`` describes the KMR loop, the MCKP DP formulations,
the cache layers and the reference oracles.  Like
``tests/obs/test_docs_match.py`` for the observability guide, these
tests pin the guide's mechanical claims to the code: every backticked
config field / oracle name / metric / code reference the guide makes
must be exactly what the package ships.
"""

import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

import repro.core.constraints as constraints
import repro.core.engine as engine
import repro.core.knapsack as knapsack
import repro.core.mckp as mckp
import repro.core.reduction as reduction
import repro.core.solver as solver
from repro.core.engine import MckpInstanceCache
from repro.core.solver import SolverConfig
from repro.obs import names

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs" / "SOLVER.md"


@pytest.fixture(scope="module")
def guide_text():
    assert DOCS.is_file(), f"solver guide missing: {DOCS}"
    return DOCS.read_text()


class TestConfigClaims:
    def test_solverconfig_kwargs_are_real_fields(self, guide_text):
        """Every ``SolverConfig(<name>=...)`` the guide writes must be an
        actual dataclass field."""
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        mentioned = set(
            re.findall(r"SolverConfig\((\w+)=", guide_text)
        )
        assert mentioned, "guide no longer names any SolverConfig field"
        assert mentioned <= fields, (
            f"guide names unknown SolverConfig fields: {mentioned - fields}"
        )

    def test_documented_fields_are_the_only_fields(self, guide_text):
        """The guide claims four fields and no oracle switch."""
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert fields == [
            "granularity_kbps",
            "exhaustive_step1",
            "max_iterations",
            "stickiness",
        ]
        for name in fields:
            assert f"`{name}`" in guide_text or f"({name}=" in guide_text, name
        assert "**no switch**" in guide_text
        for fn in (
            mckp.solve_mckp_dp,
            mckp.solve_mckp_dp_mandatory,
            knapsack.solve_subscriber,
            knapsack.knapsack_step,
            reduction.fix_owner,
            reduction.reduction_step,
        ):
            params = inspect.signature(fn).parameters
            assert not {"kernel", "dedup"} & set(params), fn.__name__

    def test_cache_capacity_matches_code(self, guide_text):
        m = re.search(r"MckpInstanceCache\(capacity=(\d+)\)", guide_text)
        assert m, "guide must state the cache capacity mechanically"
        documented = int(m.group(1))
        default = inspect.signature(MckpInstanceCache).parameters[
            "capacity"
        ].default
        assert documented == default, (
            f"guide says capacity={documented}, code default is {default}"
        )


class TestKernelClaims:
    def test_oracle_functions_exist(self, guide_text):
        for name in (
            "_solve_mckp_dp_python",
            "_solve_mckp_dp_mandatory_python",
        ):
            assert name in guide_text
            assert callable(getattr(mckp, name))
        assert "solve_subscriber" in guide_text
        assert callable(knapsack.solve_subscriber)


class TestCodeReferencesExist:
    #: (module, attribute) for every load-bearing code reference the
    #: guide makes.  New references belong here too.
    REFERENCES = (
        (solver, "GsoSolver"),
        (solver, "SolverConfig"),
        (solver, "_iteration_bound"),
        (solver, "KmrRun"),
        (constraints, "validate_feasible_set"),
        (constraints.Problem, "changed_bandwidths"),
        (constraints.Problem, "served_by"),
        (knapsack, "knapsack_step"),
        (reduction, "reduction_step"),
        (reduction, "fix_owner"),
        (reduction, "is_fixable"),
        (reduction, "highest_policy_resolution"),
        (mckp, "solve_mckp_dp"),
        (mckp, "solve_mckp_dp_mandatory"),
        (mckp, "CapacityProfile"),
        (mckp, "_max_slots"),
        (mckp, "_grid_weight"),
        (mckp, "MckpSolution"),
        (mckp, "kernel_stats"),
        (engine, "default_mckp_cache"),
        (engine, "MckpInstanceCache"),
    )

    def test_references_resolve_and_are_documented(self, guide_text):
        for module, attr in self.REFERENCES:
            assert hasattr(module, attr), f"{module.__name__}.{attr}"
            assert attr in guide_text, f"guide dropped reference to {attr}"

    def test_merge_step_exists(self, guide_text):
        from repro.core.merge import merge_step

        assert callable(merge_step)
        assert "merge_step" in guide_text

    def test_referenced_files_exist(self, guide_text):
        for rel in (
            "tests/core/test_mckp_kernel.py",
            "tests/core/test_incremental.py",
            "tests/core/test_replay.py",
            "tests/core/test_solver_docs_match.py",
            "tests/core/reference.py",
            "bench/README.md",
        ):
            assert Path(rel).name in guide_text, rel
            assert (REPO / rel).is_file(), rel


class TestMetricClaims:
    def test_mentioned_metrics_are_canonical(self, guide_text):
        mentioned = set(re.findall(r"\brepro_[a-z0-9_]+\b", guide_text))
        derived = {
            base + suffix
            for base, (kind, _) in names.ALL_METRICS.items()
            if kind == "histogram"
            for suffix in ("_sum", "_count")
        }
        unknown = mentioned - set(names.ALL_METRICS) - derived
        assert not unknown, f"guide mentions unknown metrics: {sorted(unknown)}"

    def test_kernel_metrics_documented(self, guide_text):
        assert names.MCKP_SOLVES in guide_text


class TestBenchmarkClaims:
    def test_named_workloads_exist_in_benchmark(self, guide_text):
        """The guide's speed promise names workloads and a metric of the
        end-to-end benchmark; ``BENCHMARK.json`` declares them."""
        declared = json.loads((REPO / "BENCHMARK.json").read_text())
        workloads = {w["name"] for w in declared["workloads"]}
        metrics = {m["name"] for m in declared["end_to_end"]}
        for workload in ("webinar_large", "churn_storm"):
            assert f"`{workload}`" in guide_text, workload
            assert workload in workloads, workload
        assert "`decision_ms_p50`" in guide_text
        assert "decision_ms_p50" in metrics


class TestCrossLinks:
    def test_guide_links_to_sibling_docs(self, guide_text):
        for sibling in (
            "ARCHITECTURE.md",
            "PERFORMANCE.md",
            "OBSERVABILITY.md",
        ):
            assert f"]({sibling})" in guide_text, sibling
            assert (REPO / "docs" / sibling).is_file(), sibling

    def test_sibling_docs_link_back(self):
        for rel in ("docs/ARCHITECTURE.md", "docs/PERFORMANCE.md", "README.md"):
            text = (REPO / rel).read_text()
            assert "SOLVER.md" in text, f"{rel} does not link docs/SOLVER.md"
