"""Per-decision trace trees and critical-path stage attribution.

A **trace tree** is the causal record of one orchestration decision,
reassembled offline from the cid-threaded ``repro.events/v1`` log.  Its
*primary chain* is the ordered list of events carrying the decision's
correlation id — minted at ingress (``ingress_enqueued``), by a
time-trigger refresh, or by a re-home — through the mailbox dwell, the
solve service, and the terminal
``tmmbr_push``/``tmmbr_lost`` delivery.  *Children* hang off the chain:

* **coalesced fan-in** — envelopes folded into the same decision window
  carry their own cids; their ``ingress_enqueued`` trees attach under
  the decision that absorbed them (``link="coalesced"``);
* **lineage** — a chain whose root event carries a ``parent_cid``
  attribute (time-trigger refreshes, re-home degradations) attaches
  under its predecessor's tree (``link="lineage"``).

**Critical-path extraction** walks the primary chain and attributes the
decision's end-to-end virtual latency to named stages.  Stages are the
*gaps between consecutive chain events*, so by construction the stage
durations telescope: they sum exactly to the root's end-to-end latency
(``closed_at_s - opened_at_s``) on the virtual clock — the property the
perf gate and the hypothesis suite verify.

Everything here is pure data + arithmetic over recorded events: two
identical event logs assemble into byte-identical trees
(``docs/TRACING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..events import (
    INGRESS_DEQUEUED,
    INGRESS_ENQUEUED,
    INGRESS_SHED,
    MEETING_REHOMED,
    SOLVE_SERVED,
    TIME_TRIGGER,
    TMMBR_LOST,
    TMMBR_PUSH,
    Event,
)

#: Schema identifier stamped into canonical trace encodings.
TRACE_SCHEMA = "repro.trace/v1"

# --------------------------------------------------------------------- #
# Stage vocabulary (the named rungs of the latency attribution)
# --------------------------------------------------------------------- #

#: Mailbox dwell: ingress enqueue -> decision-window drain (the
#: backpressure/coalesce window of the event-driven plane).
STAGE_MAILBOX_DWELL = "mailbox_dwell"
#: Solve: from the last wait boundary to the committed solve service
#: (cache hit or solve; on the virtual clock this is the plane's
#: executor pacing, not the solve's wall time).
STAGE_SOLVE = "solve"
#: Delivery: committed solve -> TMMBR push/loss at the clients.
STAGE_DELIVERY = "delivery"
#: Shed: the backpressure ladder degraded the decision to the Sec. 7
#: single-stream fallback.
STAGE_SHED = "shed"

#: Every stage name, for docs and validation (docs/TRACING.md).
ALL_STAGES = (
    STAGE_MAILBOX_DWELL,
    STAGE_SOLVE,
    STAGE_DELIVERY,
    STAGE_SHED,
)

#: Event kinds that terminate a primary chain.
TERMINAL_KINDS = frozenset({TMMBR_PUSH, TMMBR_LOST})

#: Event kinds that sit on the primary chain (everything else attached
#: to a tree — coalesce markers, subscription changes — is context).
CHAIN_KINDS = frozenset({
    INGRESS_ENQUEUED,
    TIME_TRIGGER,
    MEETING_REHOMED,
    INGRESS_DEQUEUED,
    INGRESS_SHED,
    SOLVE_SERVED,
    TMMBR_PUSH,
    TMMBR_LOST,
})

#: Child-link kinds.
LINK_COALESCED = "coalesced"
LINK_LINEAGE = "lineage"


@dataclass
class StageSpan:
    """One critical-path stage: a named slice of virtual time."""

    stage: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "start_s": round(self.start_s, 6),
            "end_s": round(self.end_s, 6),
            "duration_s": round(self.duration_s, 9),
        }


@dataclass
class TraceTree:
    """One decision's causal trace: primary chain + attached children."""

    cid: str
    meeting: str
    #: Events carrying this chain's cid, in arrival order.
    events: List[Event] = field(default_factory=list)
    #: Attached subtrees (coalesced fan-in and lineage successors).
    children: List["TraceTree"] = field(default_factory=list)
    #: The cid this tree is attached under ("" for roots).
    parent_cid: str = ""
    #: "" (root) | "coalesced" | "lineage".
    link: str = ""
    #: True when a terminal delivery event closed the chain.
    complete: bool = False

    # -- chain geometry ------------------------------------------------- #

    def chain(self) -> List[Event]:
        """The primary chain: own events of chain kinds, time-ordered,
        truncated at (and including) the first terminal event."""
        ordered = sorted(
            (e for e in self.events if e.kind in CHAIN_KINDS),
            key=lambda e: (e.t, e.seq),
        )
        out: List[Event] = []
        for event in ordered:
            out.append(event)
            if event.kind in TERMINAL_KINDS:
                break
        return out

    @property
    def root(self) -> Event:
        """The chain-opening event (falls back to the earliest event)."""
        chain = self.chain()
        if chain:
            return chain[0]
        return min(self.events, key=lambda e: (e.t, e.seq))

    @property
    def opened_at_s(self) -> float:
        return self.root.t

    @property
    def closed_at_s(self) -> float:
        chain = self.chain()
        return chain[-1].t if chain else self.root.t

    @property
    def latency_s(self) -> float:
        """End-to-end virtual latency of the primary chain."""
        return self.closed_at_s - self.opened_at_s

    # -- critical path --------------------------------------------------- #

    def critical_path(self) -> List[StageSpan]:
        """Stage spans covering the chain end-to-end.

        The spans partition ``[opened_at_s, closed_at_s]`` with no gaps
        or overlaps, so their durations sum exactly to
        :attr:`latency_s` — the attribution-exactness invariant.
        """
        chain = self.chain()
        if len(chain) < 2:
            return []
        spans: List[StageSpan] = []
        prev = chain[0]
        for event in chain[1:]:
            spans.append(_stage_between(prev, event))
            prev = event
        return spans

    def stage_durations(self) -> Dict[str, float]:
        """Total attributed seconds per stage (sorted by stage name)."""
        out: Dict[str, float] = {}
        for span in self.critical_path():
            out[span.stage] = out.get(span.stage, 0.0) + span.duration_s
        return dict(sorted(out.items()))

    # -- tree walks ------------------------------------------------------- #

    def walk(self) -> List["TraceTree"]:
        """This tree then every attached subtree, depth-first."""
        out = [self]
        for child in self.children:
            out.extend(child.walk())
        return out

    def event_count(self) -> int:
        """Events held by this tree and every attached subtree."""
        return sum(len(node.events) for node in self.walk())

    # -- canonical encoding ----------------------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        """Canonical encoding (sorted children; recursion bottoms out
        because child links never cycle — see the assembler)."""
        return {
            "cid": self.cid,
            "meeting": self.meeting,
            "parent_cid": self.parent_cid,
            "link": self.link,
            "complete": self.complete,
            "opened_at_s": round(self.opened_at_s, 6),
            "closed_at_s": round(self.closed_at_s, 6),
            "latency_s": round(self.latency_s, 9),
            "events": [
                {"t": round(e.t, 6), "seq": e.seq, "kind": e.kind}
                for e in sorted(self.events, key=lambda e: (e.t, e.seq))
            ],
            "stages": [span.to_dict() for span in self.critical_path()],
            "children": [
                child.to_dict()
                for child in sorted(
                    self.children,
                    key=lambda c: (c.opened_at_s, c.root.seq, c.cid),
                )
            ],
        }


def _stage_between(prev: Event, nxt: Event) -> StageSpan:
    """Name the stage covering the gap ``prev -> nxt``."""
    if nxt.kind == INGRESS_DEQUEUED:
        stage = STAGE_MAILBOX_DWELL
    elif nxt.kind == INGRESS_SHED:
        stage = STAGE_SHED
    elif nxt.kind in TERMINAL_KINDS and prev.kind in (
        SOLVE_SERVED, INGRESS_SHED
    ):
        stage = STAGE_DELIVERY
    else:
        # Up to the committed solve — or, on a chain with no explicit
        # solve event (a backend that emits none), the whole remaining gap.
        stage = STAGE_SOLVE
    return StageSpan(stage, prev.t, nxt.t)
