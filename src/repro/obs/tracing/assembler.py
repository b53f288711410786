"""Batch trace assembly: event log -> per-meeting trace trees.

The assembler consumes a run's ``repro.events/v1`` log (or one
meeting's share of it) and groups its events into
:class:`~.tree.TraceTree` instances by correlation id.  Three linking
rules build the tree structure:

1. **Chain grouping** — every event carrying cid ``C`` lands on the
   (single) open tree for ``C``; a terminal delivery event marks it
   complete and finalizes it.
2. **Coalesced fan-in** — an ``ingress_dequeued`` event with
   ``batch=k`` closes a decision window that absorbed ``k`` envelopes;
   the ``k-1`` non-anchor envelope trees (oldest pending enqueues for
   the meeting) re-attach as children of the anchor decision
   (``link="coalesced"``).
3. **Lineage** — a chain whose root event carries a ``parent_cid``
   attribute (time-trigger refreshes, re-home degradations) attaches
   under the named predecessor when that tree is known
   (``link="lineage"``); otherwise it stands alone as a root.

Every finalized root tree is kept, so the ledger is

    ``assembled == len(trees())``

where ``assembled`` counts finalized roots.  The log is already bounded
(the event-log ring), so the assembler adds no bound of its own.

Assembly is pure and deterministic: identical logs produce identical
trees, counters and digests, regardless of wall clock or feed order.
The counters live on a small :class:`TraceStats`, which the metrics
registry reads at snapshot (an assembler built while a registry is
installed registers it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from .. import names as obs_names
from .. import spans
from ..events import (
    INGRESS_DEQUEUED,
    INGRESS_ENQUEUED,
    Event,
)
from ..registry import get_registry
from .tree import (
    LINK_COALESCED,
    LINK_LINEAGE,
    ROOT_KINDS,
    TERMINAL_KINDS,
    TRACE_SCHEMA,
    TraceTree,
)


@dataclass
class TraceStats:
    """The assembler's counters."""

    assembled: int = 0
    orphan_events: int = 0

    def samples(self) -> Iterator[tuple]:
        """The registry's view (``MetricsRegistry.watch``)."""
        yield obs_names.TRACE_TREES_ASSEMBLED, {}, self.assembled
        yield obs_names.TRACE_ORPHAN_EVENTS, {}, self.orphan_events


class TraceAssembler:
    """Assemble cid-threaded events into per-meeting trace trees."""

    def __init__(self) -> None:
        #: cid -> tree, for every tree seen (open, finalized or attached
        #: as a child) — lets lineage/fan-in find targets.
        self._by_cid: Dict[str, TraceTree] = {}
        #: meeting -> open (un-finalized) root trees, oldest first.
        self._open: Dict[str, List[TraceTree]] = {}
        #: meeting -> open ingress_enqueued trees awaiting their
        #: decision window, oldest first (fan-in claiming pool).
        self._pending_enqueues: Dict[str, List[TraceTree]] = {}
        #: meeting -> finalized root trees.
        self._done: Dict[str, List[TraceTree]] = {}
        self.stats = TraceStats()
        get_registry().watch(self.stats.samples)

    # -- feeding ----------------------------------------------------------- #

    def assemble(self, events: Iterable[Event]) -> None:
        """Feed a log in canonical ``(t, seq)`` order."""
        for event in sorted(events, key=lambda e: (e.t, e.seq)):
            self._feed(event)

    def finish(self) -> None:
        """Finalize every still-open tree."""
        for meeting in sorted(self._open):
            for tree in self._open[meeting]:
                self._finalize(tree, meeting)
        self._open.clear()
        self._pending_enqueues.clear()

    def _feed(self, event: Event) -> None:
        if not event.cid:
            # Ambient cluster-wide event (faults, shard churn): count it
            # and retain it as a single-event context tree so nothing in
            # the log silently disappears.
            self.stats.orphan_events += 1
            tree = TraceTree(
                cid="", meeting=event.meeting, events=[event], complete=True
            )
            self._finalize(tree, event.meeting)
            return
        tree = self._by_cid.get(event.cid)
        if tree is None:
            tree = self._open_tree(event)
        tree.events.append(event)
        if event.kind == INGRESS_DEQUEUED:
            self._claim_coalesced(tree, event)
        if event.kind in TERMINAL_KINDS and tree.parent_cid == "" and (
            tree in self._open.get(tree.meeting, ())
        ):
            tree.complete = True
            self._open[tree.meeting].remove(tree)
            pending = self._pending_enqueues.get(tree.meeting)
            if pending and tree in pending:
                pending.remove(tree)
            self._finalize(tree, tree.meeting)

    # -- linking internals -------------------------------------------------- #

    def _open_tree(self, event: Event) -> TraceTree:
        tree = TraceTree(cid=event.cid, meeting=event.meeting, events=[])
        self._by_cid[event.cid] = tree
        parent_cid = str(event.attrs.get("parent_cid", ""))
        parent = (
            self._by_cid.get(parent_cid)
            if parent_cid and parent_cid != event.cid
            else None
        )
        if event.kind in ROOT_KINDS and parent is not None:
            # Lineage: successor chains (refreshes, re-homes) hang off
            # their predecessor instead of standing alone.
            tree.parent_cid = parent_cid
            tree.link = LINK_LINEAGE
            parent.children.append(tree)
            return tree
        self._open.setdefault(event.meeting, []).append(tree)
        if event.kind == INGRESS_ENQUEUED:
            self._pending_enqueues.setdefault(event.meeting, []).append(tree)
        return tree

    def _claim_coalesced(self, anchor: TraceTree, event: Event) -> None:
        """Fold the non-anchor envelopes of a ``batch=k`` decision window
        under the anchor tree as ``coalesced`` children."""
        batch = int(event.attrs.get("batch", 1) or 1)
        pending = self._pending_enqueues.get(event.meeting, [])
        # The anchor envelope is its own chain; claim up to batch-1
        # *other* oldest pending envelopes.
        claimed: List[TraceTree] = []
        for candidate in list(pending):
            if len(claimed) >= batch - 1:
                break
            if candidate is anchor:
                continue
            if any(node is anchor for node in candidate.walk()):
                # The anchor already hangs under this envelope (possible
                # only in adversarial logs where a lineage chain anchors
                # a dequeue); claiming it would create a cycle.
                continue
            claimed.append(candidate)
        for child in claimed:
            pending.remove(child)
            opened = self._open.get(event.meeting, [])
            if child in opened:
                opened.remove(child)
            child.parent_cid = anchor.cid
            child.link = LINK_COALESCED
            child.complete = True
            anchor.children.append(child)
        if anchor in pending:
            pending.remove(anchor)

    def _finalize(self, tree: TraceTree, meeting: str) -> None:
        self.stats.assembled += 1
        self._done.setdefault(meeting, []).append(tree)

    # -- reading results ------------------------------------------------------ #

    def trees(self, meeting: Optional[str] = None) -> List[TraceTree]:
        """Finalized root trees, in deterministic order (meeting, then
        open time, then root seq)."""
        meetings = [meeting] if meeting is not None else sorted(self._done)
        out: List[TraceTree] = []
        for name in meetings:
            out.extend(self._done.get(name, ()))
        out.sort(key=lambda tr: (tr.meeting, tr.opened_at_s, tr.root.seq))
        return out

    # -- canonical encoding ---------------------------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TRACE_SCHEMA,
            "assembled": self.stats.assembled,
            "orphan_events": self.stats.orphan_events,
            "trees": [tree.to_dict() for tree in self.trees()],
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 over the canonical encoding (determinism checks)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def assemble_trees(events: Iterable[Event]) -> TraceAssembler:
    """Sort, feed, flush: the assembled trace plane of one log."""
    assembler = TraceAssembler()
    with spans.span(obs_names.SPAN_TRACE_ASSEMBLE):
        assembler.assemble(events)
        assembler.finish()
    return assembler
