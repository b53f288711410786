"""``docs/INGRESS.md`` is pinned to the code it documents.

Same discipline as ``tests/obs/test_docs_match.py``: every canonical
ingress name (metrics, spans, event kinds, stream kinds, shed reasons,
report schema) must appear verbatim in the operator doc, every
``repro_ingress_*`` token in the doc must be canonical, and the
cross-links (README, ARCHITECTURE, OBSERVABILITY) must hold.
"""

import re
from pathlib import Path

from repro.ingress.events import ALL_STREAM_KINDS
from repro.ingress.plane import SHED_ADMISSION, SHED_OVERFLOW
from repro.chaos import REPORT_SCHEMA
from repro.chaos.runner import DELAY_SEMB, DROP_SEMB
from repro.obs import events as obs_events
from repro.obs import names as obs_names

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "INGRESS.md"

INGRESS_METRICS = sorted(
    name for name in obs_names.ALL_METRICS
    if name.startswith("repro_ingress_")
)


def _doc() -> str:
    assert DOC.exists(), "docs/INGRESS.md is part of the subsystem"
    return DOC.read_text()


class TestIngressDocPins:
    def test_every_ingress_metric_is_documented(self):
        text = _doc()
        assert INGRESS_METRICS, "ingress metrics must be registered"
        for name in INGRESS_METRICS:
            assert name in text, f"{name} missing from docs/INGRESS.md"

    def test_documented_metric_tokens_are_canonical(self):
        text = _doc()
        for token in set(re.findall(r"repro_ingress_\w+", text)):
            base = re.sub(r"_(sum|count|bucket)$", "", token)
            assert base in obs_names.ALL_METRICS, (
                f"docs/INGRESS.md names unknown metric {token}"
            )

    def test_spans_are_documented_and_canonical(self):
        text = _doc()
        span_name = obs_names.SPAN_INGRESS_DECIDE
        assert span_name in obs_names.ALL_SPANS
        assert span_name in text

    def test_event_kinds_are_documented_and_canonical(self):
        text = _doc()
        for kind in (
            obs_events.INGRESS_ENQUEUED,
            obs_events.INGRESS_DEQUEUED,
            obs_events.INGRESS_SHED,
        ):
            assert kind in obs_events.ALL_EVENT_KINDS
            assert re.search(rf"\b{kind}\b", text), (
                f"event kind {kind} missing from docs/INGRESS.md"
            )

    def test_stream_vocabulary_is_documented(self):
        text = _doc()
        for kind in ALL_STREAM_KINDS:
            assert f"`{kind}`" in text, (
                f"stream kind {kind} missing from the vocabulary table"
            )
        for fault in (DROP_SEMB, DELAY_SEMB):
            assert fault in text

    def test_shed_reasons_and_schema_are_documented(self):
        text = _doc()
        assert f"`{SHED_OVERFLOW}`" in text
        assert f"`{SHED_ADMISSION}`" in text
        assert REPORT_SCHEMA in text


class TestCrossLinks:
    def test_readme_links_the_subsystem(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/INGRESS.md" in readme
        assert "ingress/" in readme

    def test_architecture_links_the_subsystem(self):
        arch = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "repro.ingress" in arch
        assert "INGRESS.md" in arch

    def test_observability_carries_the_ingress_section(self):
        obs = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        for name in INGRESS_METRICS:
            assert name in obs
        for kind in (
            obs_events.INGRESS_ENQUEUED,
            obs_events.INGRESS_DEQUEUED,
            obs_events.INGRESS_SHED,
        ):
            assert re.search(rf"\b{kind}\b", obs)

    def test_cli_examples_match_the_parser(self):
        from repro.cli import build_parser

        text = _doc()
        assert "repro chaos run --scenario healthy" in text
        assert "--mutations" in text
        args = build_parser().parse_args(
            ["chaos", "run", "--scenario", "healthy", "--mutations", "0"]
        )
        assert args.chaos_command == "run" and args.mutations == 0.0
