"""Streaming trace assembly: event log -> bounded per-meeting trace trees.

The assembler consumes ``repro.events/v1`` events (live, or replayed
from JSONL) and groups them into :class:`~.tree.TraceTree` instances by
correlation id.  Three linking rules build the tree structure:

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
   under the named predecessor when that tree is still held
   (``link="lineage"``); otherwise it stands alone as a root.

Memory is bounded the same way the registry bounds histogram samples:
finalized trees enter a per-meeting **stride-doubling reservoir**
(capacity halves the kept set and doubles the stride when full), and the
set of *open* trees per meeting is capped (oldest force-finalized).
Every tree is conserved:

    ``assembled == exported + evicted + live``

where ``assembled`` counts finalized roots, ``exported`` counts roots
drained via :meth:`TraceAssembler.export`, ``evicted`` counts roots the
reservoirs dropped, and ``live`` counts roots currently retained.  The
invariant is enforced by test (satellite: bounded assembler memory).

Assembly is pure and deterministic: identical logs produce identical
trees, counters and digests, regardless of wall clock.  The counters
live on a small :class:`TraceStats`, which the metrics registry reads at
snapshot (an assembler built while a registry is installed registers it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .. import names as obs_names
from .. import spans
from ..events import (
    INGRESS_DEQUEUED,
    INGRESS_ENQUEUED,
    MEETING_REHOMED,
    TIME_TRIGGER,
    Event,
)
from ..registry import get_registry
from .tree import (
    LINK_COALESCED,
    LINK_LINEAGE,
    TERMINAL_KINDS,
    TRACE_SCHEMA,
    TraceTree,
)

#: Finalized trees retained per meeting before reservoir thinning.
DEFAULT_RETENTION = 64

#: Open (un-terminated) trees allowed per meeting before the oldest is
#: force-finalized (guards against logs whose delivery events were
#: dropped by the ring buffer).
DEFAULT_MAX_OPEN = 256

#: Kinds that may *open* a chain (mint its cid).
ROOT_KINDS = frozenset({
    INGRESS_ENQUEUED,
    TIME_TRIGGER,
    MEETING_REHOMED,
})


@dataclass
class TraceStats:
    """The assembler's conservation counters, less ``live`` and ``open``."""

    assembled: int = 0
    exported: int = 0
    evicted: int = 0
    orphan_events: int = 0

    def samples(self) -> Iterator[tuple]:
        """The registry's view (``MetricsRegistry.watch``)."""
        yield obs_names.TRACE_TREES_ASSEMBLED, {}, self.assembled
        yield obs_names.TRACE_TREES_EXPORTED, {}, self.exported
        yield obs_names.TRACE_TREES_EVICTED, {}, self.evicted
        yield obs_names.TRACE_ORPHAN_EVENTS, {}, self.orphan_events


class _TraceReservoir:
    """Bounded keep-every-Nth reservoir of finalized trees.

    Mirrors the stride-doubling scheme of ``registry.Histogram``: when
    the reservoir fills, every other kept tree is dropped and the
    sampling stride doubles, so retention degrades gracefully from
    "keep all" to "keep a uniform subsample" while memory stays
    ``O(capacity)``.  Both skipped-by-stride and dropped-on-halving
    trees count as evictions.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, capacity)
        self.trees: List[TraceTree] = []
        self._stride = 1
        self._index = 0
        self._next_sample = 0

    def add(self, tree: TraceTree) -> int:
        """Offer one tree; returns how many trees this evicted."""
        index = self._index
        self._index += 1
        if index != self._next_sample:
            return 1
        self._next_sample = index + self._stride
        evicted = 0
        if len(self.trees) >= self.capacity:
            evicted = len(self.trees) // 2
            self.trees = self.trees[::2]
            self._stride *= 2
            self._next_sample = index + self._stride
        self.trees.append(tree)
        return evicted


class TraceAssembler:
    """Assemble cid-threaded events into bounded per-meeting trace trees."""

    def __init__(
        self,
        retention: int = DEFAULT_RETENTION,
        max_open: int = DEFAULT_MAX_OPEN,
    ) -> None:
        self.retention = retention
        self.max_open = max_open
        #: cid -> tree, for every tree still reachable (open or retained
        #: or attached as a child) — lets lineage/fan-in find targets.
        self._by_cid: Dict[str, TraceTree] = {}
        #: meeting -> open (un-finalized) root trees, oldest first.
        self._open: Dict[str, List[TraceTree]] = {}
        #: meeting -> open ingress_enqueued trees awaiting their
        #: decision window, oldest first (fan-in claiming pool).
        self._pending_enqueues: Dict[str, List[TraceTree]] = {}
        #: meeting -> reservoir of finalized root trees.
        self._done: Dict[str, _TraceReservoir] = {}
        self.stats = TraceStats()
        get_registry().watch(self.stats.samples)

    # -- feeding ----------------------------------------------------------- #

    def feed(self, event: Event) -> None:
        """Consume one event (events may arrive in any order; replayed
        logs are sorted by :meth:`assemble` first)."""
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
            self._pending_enqueues.get(tree.meeting, [])[:] = [
                p
                for p in self._pending_enqueues.get(tree.meeting, [])
                if p is not tree
            ]
            self._finalize(tree, tree.meeting)

    def assemble(self, events: Iterable[Event]) -> None:
        """Feed a replayed log in canonical ``(t, seq)`` order."""
        for event in sorted(events, key=lambda e: (e.t, e.seq)):
            self.feed(event)

    def finish(self) -> None:
        """Flush every still-open tree into the finalized reservoirs."""
        for meeting in sorted(self._open):
            for tree in list(self._open[meeting]):
                self._open[meeting].remove(tree)
                self._finalize(tree, meeting)
        self._pending_enqueues.clear()

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
        opened = self._open.setdefault(event.meeting, [])
        opened.append(tree)
        if event.kind == INGRESS_ENQUEUED:
            self._pending_enqueues.setdefault(event.meeting, []).append(tree)
        while len(opened) > self.max_open:
            oldest = opened.pop(0)
            self._pending_enqueues.get(event.meeting, [])[:] = [
                p
                for p in self._pending_enqueues.get(event.meeting, [])
                if p is not oldest
            ]
            self._finalize(oldest, event.meeting)
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
        reg = get_registry()
        if reg.enabled:
            for node in tree.walk():
                for stage_span in node.critical_path():
                    reg.histogram(
                        obs_names.TRACE_STAGE_SECONDS,
                        stage=stage_span.stage,
                    ).observe(stage_span.duration_s)
        reservoir = self._done.setdefault(
            meeting, _TraceReservoir(self.retention)
        )
        self.stats.evicted += reservoir.add(tree)

    # -- accounting --------------------------------------------------------- #

    @property
    def live(self) -> int:
        """Finalized root trees currently retained in the reservoirs."""
        return sum(len(r.trees) for r in self._done.values())

    def open_count(self) -> int:
        return sum(len(v) for v in self._open.values())

    def counters(self) -> Dict[str, int]:
        """Conservation ledger: ``assembled == exported + evicted + live``."""
        return {
            "assembled": self.stats.assembled,
            "exported": self.stats.exported,
            "evicted": self.stats.evicted,
            "live": self.live,
            "open": self.open_count(),
            "orphan_events": self.stats.orphan_events,
        }

    # -- reading results ------------------------------------------------------ #

    def trees(self, meeting: Optional[str] = None) -> List[TraceTree]:
        """Retained finalized root trees, in deterministic order
        (meeting, then open time, then root seq)."""
        meetings = [meeting] if meeting is not None else sorted(self._done)
        out: List[TraceTree] = []
        for name in meetings:
            reservoir = self._done.get(name)
            if reservoir is not None:
                out.extend(reservoir.trees)
        out.sort(key=lambda tr: (tr.meeting, tr.opened_at_s, tr.root.seq))
        return out

    def export(self) -> List[TraceTree]:
        """Drain the retained trees (counted into ``exported``)."""
        drained = self.trees()
        for name in list(self._done):
            self._done[name].trees = []
        self.stats.exported += len(drained)
        return drained

    def stage_latencies(
        self,
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Per-stage ``(start_s, duration_s)`` samples across every
        retained decision tree (for SLO stage-budget objectives)."""
        out: Dict[str, List[Tuple[float, float]]] = {}
        for tree in self.trees():
            for node in tree.walk():
                for span in node.critical_path():
                    out.setdefault(span.stage, []).append(
                        (span.start_s, span.duration_s)
                    )
        for samples in out.values():
            samples.sort()
        return dict(sorted(out.items()))

    # -- canonical encoding ---------------------------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TRACE_SCHEMA,
            "assembled": self.stats.assembled,
            "evicted": self.stats.evicted,
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


def assemble_trees(
    events: Iterable[Event],
    retention: int = DEFAULT_RETENTION,
    max_open: int = DEFAULT_MAX_OPEN,
) -> TraceAssembler:
    """One-shot convenience: sort, feed, flush, return the assembler."""
    assembler = TraceAssembler(retention=retention, max_open=max_open)
    with spans.span(obs_names.SPAN_TRACE_ASSEMBLE):
        assembler.assemble(events)
        assembler.finish()
    return assembler
