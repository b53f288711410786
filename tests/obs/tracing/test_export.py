"""Decision exports: Chrome trace-event JSON and the text waterfall."""

import json

import pytest

from repro.ingress.plane import Decision
from repro.obs.tracing import (
    chrome_trace,
    format_waterfall,
    waterfall,
    write_chrome_trace,
)


def decision(cid, opened, decided, enqueued=None, closed=None, batch=1,
             trigger="event", source="solve"):
    return Decision(
        meeting=cid.split("#")[0], cid=cid, opened_at_s=opened,
        decided_at_s=decided,
        enqueued_at_s=opened if enqueued is None else enqueued,
        closed_at_s=decided if closed is None else closed,
        batch=batch, trigger=trigger, source=source, digest=f"d-{cid}",
    )


def sample_decisions():
    # Commit order, as ``IngressPlane.decisions`` holds them.
    return [
        decision("m1#1", 0.5, 1.6, closed=1.5, batch=2),
        decision("m0#1", 0.0, 0.21, closed=0.2),
        # A report the network held from 1.0 s until 1.5 s.
        decision("m0#2", 1.0, 2.01, enqueued=1.5, closed=2.0),
        decision("m0#4", 5.0, 5.2, closed=5.0, batch=0, trigger="time",
                 source="cache"),
        decision("m0#5", 6.0, 6.0, closed=6.0, source="shed"),
    ]


def slices(payload, cat):
    return [
        e for e in payload["traceEvents"]
        if e["ph"] == "X" and e["cat"] == cat
    ]


class TestChromeTrace:
    def test_one_process_per_meeting(self):
        payload = chrome_trace(sample_decisions())
        metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert [m["args"]["name"] for m in metas] == [
            "meeting m0", "meeting m1",
        ]
        assert payload["displayTimeUnit"] == "ms"

    def test_one_thread_per_decision_in_commit_order(self):
        heads = slices(chrome_trace(sample_decisions()), "decision")
        assert [(h["args"]["cid"], h["pid"], h["tid"]) for h in heads] == [
            ("m0#1", 1, 1), ("m0#2", 1, 2), ("m0#4", 1, 3), ("m0#5", 1, 4),
            ("m1#1", 2, 1),
        ]

    def test_stage_slices_are_the_decisions_stages_in_microseconds(self):
        decisions = sample_decisions()
        stages = slices(chrome_trace(decisions), "stage")
        want = [
            (d.cid, s.stage, s.start_s * 1e6, s.duration_s * 1e6)
            for d in sorted(decisions, key=lambda d: d.meeting)
            for s in d.stages()
        ]
        assert [
            (s["args"]["cid"], s["name"], s["ts"], s["dur"]) for s in stages
        ] == [(c, n, pytest.approx(t), pytest.approx(u)) for c, n, t, u in want]

    def test_decision_slice_spans_its_stages(self):
        heads = {
            h["args"]["cid"]: h
            for h in slices(chrome_trace(sample_decisions()), "decision")
        }
        held = heads["m0#2"]
        # The slice starts at the enqueue; the latency counts the hold.
        assert held["ts"] == 1.5e6
        assert held["dur"] == pytest.approx(0.51e6)
        assert held["args"] == {
            "cid": "m0#2", "trigger": "event", "source": "solve",
            "batch": 1, "latency_s": 1.01,
        }
        timed = heads["m0#4"]
        assert timed["ts"] == 5.0e6
        assert timed["dur"] == pytest.approx(0.2e6)
        assert heads["m0#5"]["dur"] == 0.0

    def test_no_slice_claims_a_completeness_it_cannot_know(self):
        payload = chrome_trace(sample_decisions())
        assert all(
            "complete" not in e.get("args", {})
            for e in payload["traceEvents"]
        )

    def test_export_bytes_are_deterministic(self, tmp_path):
        a = write_chrome_trace(sample_decisions(), tmp_path / "a.json")
        b = write_chrome_trace(sample_decisions(), tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text()) == chrome_trace(sample_decisions())


class TestWaterfall:
    def test_row_names_the_decision(self):
        row = waterfall(sample_decisions()[0])[0]
        assert row == (
            "m1#1  trigger=event source=solve batch=2  "
            "t=0.500s  latency=1100.00ms"
        )

    def test_one_bar_per_stage(self):
        d = sample_decisions()[0]
        lines = waterfall(d)[1:]
        assert [line.split()[0] for line in lines] == [
            s.stage for s in d.stages()
        ]
        assert [line.split()[-1] for line in lines] == [
            f"{s.duration_s * 1e3:.2f}ms" for s in d.stages()
        ]
        assert "#" * 36 in lines[0]

    def test_a_held_report_starts_its_bars_late(self):
        dwell = waterfall(sample_decisions()[2])[1]
        bar = dwell.split("|")[1]
        assert bar.startswith(" " * 20 + "#")

    def test_zero_latency_decision_renders_without_division(self):
        lines = waterfall(sample_decisions()[-1])
        assert lines[0].endswith("latency=0.00ms")
        assert all("|#" in line for line in lines[1:])

    def test_format_waterfall_groups_by_meeting_and_limits(self):
        decisions = sample_decisions()
        text = format_waterfall(decisions, limit=2)
        rows = [line.split()[0] for line in text.splitlines() if "t=" in line]
        assert rows == ["m0#1", "m0#2"]
        assert text.rstrip().endswith("... 3 more decisions not shown")
        full = format_waterfall(decisions)
        assert "more decisions" not in full
        assert full.count("  t=") == len(decisions)
