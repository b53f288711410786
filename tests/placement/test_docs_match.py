"""docs/PLACEMENT.md must not drift from the placement subsystem.

Same discipline as ``tests/obs/test_docs_match.py``: the guide promises
concrete names — policies, metrics, migration reasons, the invariant,
the scenario, the CLI verbs — and these tests pin every one of them to
the code's canonical constants.
"""

import re
from pathlib import Path

import pytest

from repro.obs import names as obs_names
from repro.placement.policies import POLICIES

DOCS = Path(__file__).resolve().parents[2] / "docs" / "PLACEMENT.md"


@pytest.fixture(scope="module")
def guide_text():
    assert DOCS.is_file(), f"placement guide missing: {DOCS}"
    return DOCS.read_text()


class TestGuideCoversNames:
    def test_every_policy_documented(self, guide_text):
        for policy in POLICIES:
            assert re.search(rf"`{policy}`", guide_text), policy

    def test_placement_metrics_documented(self, guide_text):
        for metric in (
            obs_names.PLACEMENT_DECISIONS,
            obs_names.PLACEMENT_SHARD_COST,
            obs_names.PLACEMENT_MIGRATIONS,
        ):
            assert metric in guide_text, metric

    def test_rebalance_span_documented(self, guide_text):
        assert obs_names.SPAN_PLACEMENT_REBALANCE in guide_text

    def test_migration_reasons_documented(self, guide_text):
        # The reason vocabulary of repro_placement_migrations_total.
        for reason in (
            "hot_shard",
            "shard_killed",
            "shard_added",
            "manual",
        ):
            assert re.search(rf"\b{reason}\b", guide_text), reason

    def test_chaos_integration_documented(self, guide_text):
        from repro.chaos import INV_SHARD_BUDGET, OVERLOAD_SHARD
        from repro.chaos.scenarios import get_scenario

        assert re.search(rf"\b{INV_SHARD_BUDGET}\b", guide_text)
        assert re.search(rf"\b{OVERLOAD_SHARD}\b", guide_text)
        assert re.search(r"\bhot_shard\b", guide_text)
        get_scenario("hot_shard")  # the documented scenario exists

    def test_cli_verbs_documented(self, guide_text):
        from repro.cli import build_parser

        verbs = set(re.findall(r"repro place (\w+)", guide_text))
        assert "stats" in verbs
        for verb in verbs:  # an unknown verb exits the parser
            build_parser().parse_args(["place", verb])

    def test_documented_config_knobs_exist(self, guide_text):
        from repro.cluster import ClusterConfig

        assert "ClusterConfig.placement" in guide_text
        config = ClusterConfig()
        assert hasattr(config, "placement")
        assert hasattr(config, "shard_cost_budget")


class TestCrossLinks:
    def test_architecture_links_placement(self):
        text = (
            Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"
        ).read_text()
        assert "PLACEMENT.md" in text
        assert "repro.placement" in text

    def test_readme_links_placement(self):
        text = (
            Path(__file__).resolve().parents[2] / "README.md"
        ).read_text()
        assert "docs/PLACEMENT.md" in text

    def test_resilience_links_placement(self):
        text = (
            Path(__file__).resolve().parents[2] / "docs" / "RESILIENCE.md"
        ).read_text()
        assert "PLACEMENT.md" in text
        assert "shard_budget" in text

    def test_guide_links_back(self, guide_text):
        assert "OBSERVABILITY.md" in guide_text
        assert "RESILIENCE.md" in guide_text
