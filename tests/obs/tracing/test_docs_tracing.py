"""``docs/TRACING.md`` is pinned to the trace plane it documents.

Same discipline as ``tests/obs/test_docs_match.py`` and
``tests/ingress/test_docs_ingress.py``: every canonical tracing name
(schemas, stages, link kinds, metrics, span, CLI commands) must appear
verbatim in the operator doc, and the cross-links must hold.
"""

from pathlib import Path

from repro.obs import names as obs_names
from repro.obs.tracing import (
    ALL_STAGES,
    LINK_COALESCED,
    LINK_LINEAGE,
    TRACE_SCHEMA,
)

REPO = Path(__file__).resolve().parents[3]
DOC = REPO / "docs" / "TRACING.md"

TRACE_METRICS = sorted(
    name for name in obs_names.ALL_METRICS
    if name.startswith("repro_trace_")
)


def _doc() -> str:
    assert DOC.exists(), "docs/TRACING.md is part of the subsystem"
    return DOC.read_text()


class TestTracingDocPins:
    def test_schemas_pinned(self):
        text = _doc()
        assert TRACE_SCHEMA in text

    def test_every_stage_documented(self):
        text = _doc()
        for stage in ALL_STAGES:
            assert f"`{stage}`" in text, f"{stage} missing from TRACING.md"

    def test_link_kinds_documented(self):
        text = _doc()
        assert f"`{LINK_COALESCED}`" in text
        assert f"`{LINK_LINEAGE}`" in text

    def test_every_trace_metric_documented(self):
        text = _doc()
        assert TRACE_METRICS, "trace metrics must be registered"
        for name in TRACE_METRICS:
            assert name in text, f"{name} missing from TRACING.md"

    def test_span_and_conservation_ledger_documented(self):
        text = _doc()
        assert obs_names.SPAN_TRACE_ASSEMBLE in text
        assert "assembled == exported + evicted + live" in text

    def test_cli_commands_documented(self):
        text = _doc()
        for command in ("record", "show", "export", "profile"):
            assert f"repro trace {command}" in text

    def test_cross_links_hold(self):
        text = _doc()
        assert "OBSERVABILITY.md" in text
        assert (REPO / "docs" / "OBSERVABILITY.md").exists()
        observability = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        assert "TRACING.md" in observability


class TestStageBudgetsMatchDoc:
    def test_budgets_cover_every_stage(self):
        from repro.obs.slo import STAGE_BUDGETS_S

        assert set(STAGE_BUDGETS_S) == set(ALL_STAGES)
        assert "STAGE_BUDGETS_S" in _doc()
