"""Timeline reconstruction: the view behind ``repro obs timeline``.

:func:`meeting_timeline` / :func:`format_timeline` reconstruct the
causal per-meeting timeline (SEMB report → re-solve → TMMBR push →
subscription change), grouping events by correlation id so one chain
reads top-to-bottom even when it crossed shards.  The run report itself
is the chaos :class:`~repro.chaos.report.RunReport`.

Pure functions over already-collected data — nothing here records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .events import Event

#: Attribute keys surfaced inline in timeline rows, in render order.
_TIMELINE_ATTRS = (
    "trigger", "source", "fault", "reason", "coalesced", "folded_into",
    "previous_shard", "changed", "changes", "publishers", "delivered",
    "iterations", "idle_s",
)


def meeting_timeline(
    events: Sequence[Event], meeting: str
) -> List[Event]:
    """Events concerning ``meeting``, in causal order (t, then seq)."""
    rows = [e for e in events if e.meeting == meeting]
    rows.sort(key=lambda e: (e.t, e.seq))
    return rows


def correlation_chains(events: Sequence[Event]) -> Dict[str, List[Event]]:
    """Group events by correlation id, each chain in causal order.

    Events without a cid are grouped under ``""``.
    """
    chains: Dict[str, List[Event]] = {}
    for event in sorted(events, key=lambda e: (e.t, e.seq)):
        chains.setdefault(event.cid, []).append(event)
    return chains


def _attr_text(event: Event) -> str:
    parts: List[str] = []
    for key in _TIMELINE_ATTRS:
        if key in event.attrs:
            parts.append(f"{key}={event.attrs[key]}")
    for key in sorted(event.attrs):
        if key not in _TIMELINE_ATTRS:
            parts.append(f"{key}={event.attrs[key]}")
    return " ".join(parts)


def format_timeline(
    events: Sequence[Event], meeting: str, title: str = "", dropped: int = 0
) -> str:
    """Render one meeting's causal timeline as aligned text.

    New correlation chains are separated by a blank line, so each
    report → decision window → solve → subscription-change → TMMBR causal
    unit reads as one block::

        t=2.250s  [chaos-0#3] ingress_enqueued     depth=1 event_kind=semb
        t=3.250s  [chaos-0#3] ingress_dequeued     batch=2 coalesced=1
        t=3.252s  [chaos-0#3] solve_served         shard=s0 source=solve
        t=3.252s  [chaos-0#3] subscription_change  changed=2
        t=3.252s  [chaos-0#3] tmmbr_push           source=solve

    ``dropped`` is how many events the log's ring evicted; when any were,
    a line says so, since the first chain shown may have lost its head.
    """
    rows = meeting_timeline(events, meeting)
    header = title or f"timeline for {meeting}"
    if not rows:
        return f"{header}: no events"
    lines = [f"{header} — {len(rows)} events"]
    if dropped:
        lines.append(
            f"(the event ring dropped the run's {dropped} oldest events, "
            "so the first chain may be cut)"
        )
    cid_width = max(len(e.cid) for e in rows)
    previous_cid: Optional[str] = None
    for event in rows:
        if previous_cid is not None and event.cid != previous_cid:
            lines.append("")
        previous_cid = event.cid
        cid = f"[{event.cid}]".ljust(cid_width + 2) if event.cid else " " * (
            cid_width + 2
        )
        shard = f"shard={event.shard} " if event.shard else ""
        attrs = _attr_text(event)
        line = f"t={event.t:8.3f}s  {cid} {event.kind:<20s} {shard}{attrs}"
        lines.append(line.rstrip())
    return "\n".join(lines)


def timeline_dict(
    events: Sequence[Event], meeting: str, emitted: int = 0, dropped: int = 0
) -> Dict[str, object]:
    """JSON form of one meeting's timeline, chains included.

    ``emitted`` and ``dropped`` are the log's counts (all meetings): a
    non-zero ``dropped`` means the first chain shown may be cut, as the
    text form's second line says.
    """
    rows = meeting_timeline(events, meeting)
    chains = correlation_chains(rows)
    return {
        "meeting": meeting,
        "emitted": emitted,
        "dropped": dropped,
        "events": [e.to_dict() for e in rows],
        "chains": [
            {
                "cid": cid,
                "kinds": [e.kind for e in chain],
                "t_first": round(chain[0].t, 6),
                "t_last": round(chain[-1].t, 6),
            }
            for cid, chain in sorted(chains.items())
            if cid
        ],
    }
