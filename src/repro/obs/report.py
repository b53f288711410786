"""Timeline reconstruction and run-report rendering.

Turns the raw telemetry of one run — the event log, the SLO verdicts,
the registry — into the operator-facing views
behind ``repro obs report`` and ``repro obs timeline <meeting>``:

* :func:`meeting_timeline` / :func:`format_timeline` reconstruct the
  causal per-meeting timeline (SEMB report → re-solve → TMMBR push →
  subscription change), grouping events by correlation id so one chain
  reads top-to-bottom even when it crossed shards;
* :func:`format_slo_verdicts` renders the SLO engine's burn-rate
  verdicts as a PASS/FAIL/BURN table;
* :func:`report_dict` / :func:`format_report` assemble the full report
  (text and JSON) for a run.

Pure functions over already-collected data — nothing here records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .events import Event, EventLog
from .slo import SloVerdict

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
    events: Sequence[Event], meeting: str, title: str = ""
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
    """
    rows = meeting_timeline(events, meeting)
    header = title or f"timeline for {meeting}"
    if not rows:
        return f"{header}: no events"
    lines = [f"{header} — {len(rows)} events"]
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


def timeline_dict(events: Sequence[Event], meeting: str) -> Dict[str, object]:
    """JSON form of one meeting's timeline, chains included."""
    rows = meeting_timeline(events, meeting)
    chains = correlation_chains(rows)
    return {
        "meeting": meeting,
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


def format_slo_verdicts(verdicts: Sequence[SloVerdict]) -> str:
    """Render SLO verdicts as a PASS/FAIL/BURN table::

        PASS kmr_iteration_bound      0.600 <= 1.000 ratio   (Sec. 5 / Fig. 6)
        FAIL stream_interruption_s    8.000 <= 6.000 s       (Sec. 7)
    """
    if not verdicts:
        return "no SLOs evaluated"
    lines = []
    for v in verdicts:
        word = v.verdict_word()
        if v.value is None:
            body = f"{v.name:<24s} no data ({v.measure})"
        else:
            body = (
                f"{v.name:<24s} {v.value:.3f} {v.comparator} "
                f"{v.threshold:.3f} {v.unit}"
            )
        ref = f"  ({v.paper_ref})" if v.paper_ref else ""
        lines.append(f"{word:<5s}{body}{ref}".rstrip())
    return "\n".join(lines)


def report_dict(
    scenario: str,
    seed: int,
    verdicts: Sequence[SloVerdict],
    log: Optional[EventLog] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the machine-readable ``repro obs report`` payload."""
    out: Dict[str, object] = {
        "scenario": scenario,
        "seed": seed,
        "slo": [v.to_dict() for v in verdicts],
        "slo_ok": all(v.ok for v in verdicts),
    }
    if log is not None:
        out["events"] = {
            "schema": log.header_dict()["schema"],
            "emitted": log.emitted,
            "retained": len(log),
            "dropped": log.dropped,
            "kinds": log.kinds(),
            "digest": log.digest(),
        }
    if extra:
        out.update(extra)
    return out


def format_report(
    scenario: str,
    seed: int,
    verdicts: Sequence[SloVerdict],
    log: Optional[EventLog] = None,
    summary: str = "",
) -> str:
    """Assemble the human-readable ``repro obs report`` text."""
    sections: List[str] = []
    if summary:
        sections.append(summary.rstrip())
    sections.append("slo verdicts:\n" + format_slo_verdicts(verdicts))
    if log is not None:
        kinds = "  ".join(f"{k}={n}" for k, n in log.kinds().items())
        sections.append(
            f"events: emitted={log.emitted} retained={len(log)} "
            f"dropped={log.dropped}\n  {kinds}"
        )
    return "\n\n".join(sections)
