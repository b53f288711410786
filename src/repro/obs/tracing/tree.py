"""Per-decision trace trees and the stage vocabulary.

A **trace tree** is the causal record of one orchestration decision,
reassembled offline from the cid-threaded ``repro.events/v1`` log: the
events carrying the decision's correlation id — minted at ingress
(``ingress_enqueued``), by a time-trigger refresh, or by a re-home —
through the terminal ``tmmbr_push``/``tmmbr_lost`` delivery, which
marks the tree complete.  *Children* hang off it:

* **coalesced fan-in** — envelopes folded into the same decision window
  carry their own cids; their ``ingress_enqueued`` trees attach under
  the decision that absorbed them (``link="coalesced"``);
* **lineage** — a chain whose root event carries a ``parent_cid``
  attribute (time-trigger refreshes, re-home degradations) attaches
  under its predecessor's tree (``link="lineage"``).

A tree attributes no latency: each decision's stages are attributed
once, by the ingress plane at commit (``Decision.stages()``), in the
vocabulary named here.

Everything here is pure data over recorded events: two identical event
logs assemble into byte-identical trees (``docs/TRACING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..events import (
    INGRESS_ENQUEUED,
    MEETING_REHOMED,
    TIME_TRIGGER,
    TMMBR_LOST,
    TMMBR_PUSH,
    Event,
)

#: Schema identifier stamped into canonical trace encodings.
#: v3: a tree carries its events and links only; stages, latency and
#: the close instant are the decision's (``Decision.stages()``).
TRACE_SCHEMA = "repro.trace/v3"

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

#: Kinds that may *open* a chain (mint its cid).
ROOT_KINDS = frozenset({
    INGRESS_ENQUEUED,
    TIME_TRIGGER,
    MEETING_REHOMED,
})

#: Event kinds that complete a chain.
TERMINAL_KINDS = frozenset({TMMBR_PUSH, TMMBR_LOST})

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


@dataclass
class TraceTree:
    """One decision's causal trace: its events + attached children."""

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

    @property
    def root(self) -> Event:
        """The tree's earliest event."""
        return min(self.events, key=lambda e: (e.t, e.seq))

    @property
    def opened_at_s(self) -> float:
        return self.root.t

    def walk(self) -> List["TraceTree"]:
        """This tree then every attached subtree, depth-first."""
        out = [self]
        for child in self.children:
            out.extend(child.walk())
        return out

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
            "events": [
                {"t": round(e.t, 6), "seq": e.seq, "kind": e.kind}
                for e in sorted(self.events, key=lambda e: (e.t, e.seq))
            ],
            "children": [
                child.to_dict()
                for child in sorted(
                    self.children,
                    key=lambda c: (c.opened_at_s, c.root.seq, c.cid),
                )
            ],
        }
