"""Decision exports: text waterfalls and Chrome trace-event JSON (Perfetto).

Both render the ingress plane's committed decisions
(``IngressPlane.decisions``) with the stages the plane attributed at
commit (``Decision.stages()``), so they list every decision of a run
whatever the event-log ring still holds.

``format_waterfall`` prints one row per decision (cid, trigger, source,
``batch=k``, open time, latency) and one bar per stage, scaled to the
decision's latency.  ``chrome_trace`` renders the same decisions in the
Chrome trace-event format — open the file at https://ui.perfetto.dev
(or ``chrome://tracing``): one process per meeting, one thread per
decision, one complete "X" slice for the decision and one per stage.
Meetings get process ids in sorted order and decisions thread ids in
commit order, so the export is byte-deterministic.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

if TYPE_CHECKING:  # the plane imports the stage vocabulary from here
    from ...ingress.plane import Decision

#: Bar width of the waterfall renderer.
_BAR_WIDTH = 40


def _by_meeting(decisions: Sequence["Decision"]) -> List["Decision"]:
    """Decisions grouped by meeting (sorted), each in commit order."""
    return sorted(decisions, key=lambda d: d.meeting)


def chrome_trace(decisions: Sequence["Decision"]) -> Dict[str, object]:
    """Encode decisions as a Chrome trace-event JSON object.

    Timestamps are virtual seconds scaled to microseconds (the format's
    native unit).  A decision's slice spans its stages, which partition
    it; its args carry the decision's own latency, which also counts
    any hold before the anchor event reached its mailbox.
    """
    events: List[Dict[str, object]] = []
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}
    for decision in _by_meeting(decisions):
        meeting = decision.meeting
        if meeting not in pids:
            pids[meeting] = len(pids) + 1
            events.append({
                "ph": "M",
                "name": "process_name",
                "pid": pids[meeting],
                "tid": 0,
                "args": {"name": f"meeting {meeting}"},
            })
        tids[meeting] = tids.get(meeting, 0) + 1
        lane = {"pid": pids[meeting], "tid": tids[meeting]}
        stages = decision.stages()
        start, end = stages[0].start_s, stages[-1].end_s
        events.append({
            "ph": "X",
            "name": f"decision {decision.cid}",
            "cat": "decision",
            **lane,
            "ts": round(start * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {
                "cid": decision.cid,
                "trigger": decision.trigger,
                "source": decision.source,
                "batch": decision.batch,
                "latency_s": round(decision.latency_s, 9),
            },
        })
        for span in stages:
            events.append({
                "ph": "X",
                "name": span.stage,
                "cat": "stage",
                **lane,
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "args": {"cid": decision.cid},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    decisions: Sequence["Decision"], path: Union[str, Path]
) -> Path:
    """Write the Chrome trace JSON for ``decisions`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            chrome_trace(decisions), sort_keys=True, separators=(",", ":")
        )
        + "\n"
    )
    return path


# --------------------------------------------------------------------- #
# Text waterfall
# --------------------------------------------------------------------- #


def waterfall(decision: "Decision") -> List[str]:
    """Render one decision: its row, then one bar per stage."""
    total = decision.latency_s
    lines = [
        f"{decision.cid}  trigger={decision.trigger} "
        f"source={decision.source} batch={decision.batch}  "
        f"t={decision.opened_at_s:.3f}s  latency={total * 1e3:.2f}ms"
    ]
    for span in decision.stages():
        if total > 0:
            offset = int(round(
                (span.start_s - decision.opened_at_s) / total * _BAR_WIDTH
            ))
            width = max(
                1, int(round(span.duration_s / total * _BAR_WIDTH))
            )
        else:
            offset, width = 0, 1
        offset = min(offset, _BAR_WIDTH - 1)
        width = min(width, _BAR_WIDTH - offset)
        bar = " " * offset + "#" * width
        lines.append(
            f"  {span.stage:<14} |{bar:<{_BAR_WIDTH}}| "
            f"{span.duration_s * 1e3:8.2f}ms"
        )
    return lines


def format_waterfall(
    decisions: Sequence["Decision"], limit: int = 0
) -> str:
    """Render decisions (optionally only the first ``limit``) as one
    text waterfall block."""
    ordered = _by_meeting(decisions)
    shown = ordered[:limit] if limit else ordered
    lines: List[str] = []
    for decision in shown:
        lines.extend(waterfall(decision))
        lines.append("")
    if limit and len(ordered) > limit:
        lines.append(f"... {len(ordered) - limit} more decisions not shown")
    return "\n".join(lines).rstrip() + "\n"
