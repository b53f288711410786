"""Trace exports: Chrome trace-event JSON (Perfetto) and text waterfalls.

``chrome_trace`` renders assembled trace trees into the Chrome
trace-event format — open the file at https://ui.perfetto.dev (or
``chrome://tracing``) to see per-meeting swim-lanes of decision
pipelines, one complete "X" slice per critical-path stage.  Process ids
map to meetings and thread ids to decisions, assigned in sorted order so
the export is byte-deterministic.

``format_waterfall`` renders the same trees as a terminal-friendly
waterfall: one bar per stage scaled to the tree's end-to-end latency,
with coalesced fan-in and lineage children indented under their parent.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from .tree import TraceTree

#: Bar width of the waterfall renderer.
_BAR_WIDTH = 40


def chrome_trace(trees: Iterable[TraceTree]) -> Dict[str, object]:
    """Encode trees as a Chrome trace-event JSON object.

    Timestamps are virtual seconds scaled to microseconds (the format's
    native unit); deterministic pid/tid assignment follows sorted
    meeting order then tree order.
    """
    roots = sorted(
        trees, key=lambda tr: (tr.meeting, tr.opened_at_s, tr.root.seq)
    )
    pids: Dict[str, int] = {}
    for tree in roots:
        pids.setdefault(tree.meeting or "(cluster)", len(pids) + 1)
    events: List[Dict[str, object]] = []
    for name, pid in pids.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"meeting {name}"},
            }
        )
    tid_by_pid: Dict[int, int] = {}
    for tree in roots:
        pid = pids[tree.meeting or "(cluster)"]
        tid = tid_by_pid.get(pid, 0) + 1
        tid_by_pid[pid] = tid
        _emit_tree(events, tree, pid, tid)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _emit_tree(
    events: List[Dict[str, object]],
    tree: TraceTree,
    pid: int,
    tid: int,
) -> None:
    label = tree.cid or f"{tree.meeting}/ambient"
    if tree.latency_s > 0 or tree.critical_path():
        events.append(
            {
                "ph": "X",
                "name": f"decision {label}",
                "cat": "decision",
                "pid": pid,
                "tid": tid,
                "ts": round(tree.opened_at_s * 1e6, 3),
                "dur": round(tree.latency_s * 1e6, 3),
                "args": {
                    "cid": tree.cid,
                    "complete": tree.complete,
                    "link": tree.link,
                },
            }
        )
    for span in tree.critical_path():
        events.append(
            {
                "ph": "X",
                "name": span.stage,
                "cat": "stage",
                "pid": pid,
                "tid": tid,
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "args": {"cid": tree.cid},
            }
        )
    for child in sorted(
        tree.children, key=lambda c: (c.opened_at_s, c.root.seq, c.cid)
    ):
        _emit_tree(events, child, pid, tid)


def write_chrome_trace(
    trees: Iterable[TraceTree], path: Union[str, Path]
) -> Path:
    """Write the Chrome trace JSON for ``trees`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            chrome_trace(trees), sort_keys=True, separators=(",", ":")
        )
        + "\n"
    )
    return path


# --------------------------------------------------------------------- #
# Text waterfall
# --------------------------------------------------------------------- #


def waterfall(tree: TraceTree, indent: int = 0) -> List[str]:
    """Render one tree as indented waterfall lines."""
    pad = "  " * indent
    head = tree.cid or f"{tree.meeting}/ambient"
    status = "cut" if tree.cut else "complete" if tree.complete else "open"
    link = f" [{tree.link}]" if tree.link else ""
    lines = [
        f"{pad}{head}{link} ({status})  "
        f"t={tree.opened_at_s:.3f}s  latency={tree.latency_s * 1e3:.2f}ms"
    ]
    total = tree.latency_s
    for span in tree.critical_path():
        if total > 0:
            offset = int(
                round((span.start_s - tree.opened_at_s) / total * _BAR_WIDTH)
            )
            width = max(
                1, int(round(span.duration_s / total * _BAR_WIDTH))
            )
        else:
            offset, width = 0, 1
        offset = min(offset, _BAR_WIDTH - 1)
        width = min(width, _BAR_WIDTH - offset)
        bar = " " * offset + "#" * width
        lines.append(
            f"{pad}  {span.stage:<14} |{bar:<{_BAR_WIDTH}}| "
            f"{span.duration_s * 1e3:8.2f}ms"
        )
    for child in sorted(
        tree.children, key=lambda c: (c.opened_at_s, c.root.seq, c.cid)
    ):
        lines.extend(waterfall(child, indent + 1))
    return lines


def format_waterfall(trees: Sequence[TraceTree], limit: int = 0) -> str:
    """Render trees (optionally only the first ``limit``) as one text
    waterfall block."""
    roots = sorted(
        trees, key=lambda tr: (tr.meeting, tr.opened_at_s, tr.root.seq)
    )
    shown = roots[:limit] if limit else roots
    lines: List[str] = []
    for tree in shown:
        lines.extend(waterfall(tree))
        lines.append("")
    if limit and len(roots) > limit:
        lines.append(f"... {len(roots) - limit} more trees not shown")
    return "\n".join(lines).rstrip() + "\n"
