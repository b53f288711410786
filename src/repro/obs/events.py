"""Structured event log: the causal record of "what happened to whom".

While the metrics registry answers "how fast / how often", the event
log answers *"why did subscriber S drop to 360p at t=12.4s"*: every
configuration change is recorded as a small structured event carrying
a **correlation id** minted at ingress (the SEMB/global-picture report entering its meeting's
mailbox) and propagated through the decision window, the solve service,
the solution cache and the TMMBR/feedback delivery — so one chain of events reconstructs into a
causal per-meeting timeline (``repro obs timeline <meeting>``).

Design constraints mirror the registry's:

1. **Off-by-default-cheap.**  No log is installed by default;
   instrumented call sites pay one ``active_event_log() is None`` check.
   Install one with :func:`record_events` (context manager) or
   :func:`set_event_log`.
2. **Deterministic.**  Events carry *simulated* time only, a per-log
   monotonic sequence number, and correlation ids minted from per-meeting
   counters — two runs of the same seeded scenario produce byte-identical
   JSONL (the chaos subsystem enforces this).
3. **Bounded.**  The log is a ring buffer; overflow evicts the oldest
   events and counts them in ``dropped``.

The JSONL schema (``repro.events/v1``) is one object per line: a
``{"record": "meta", ...}`` header, then one ``{"record": "event", ...}``
object per retained event.  ``docs/OBSERVABILITY.md`` documents the
schema and every built-in event kind.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Union

from . import names as obs_names
from .registry import get_registry

#: Schema identifier stamped into every event-log header.
EVENTS_SCHEMA = "repro.events/v1"

#: Default ring-buffer capacity.
DEFAULT_CAPACITY = 8192

# --------------------------------------------------------------------- #
# Built-in event kinds (the causal vocabulary)
# --------------------------------------------------------------------- #

#: The plane synthesized a max-interval refresh (Fig. 12 ceiling).
TIME_TRIGGER = "time_trigger"
#: The solve service committed a configuration (source: solve / cache /
#: fallback / shed).
SOLVE_SERVED = "solve_served"
#: A TMMBR configuration push reached the meeting's clients.
TMMBR_PUSH = "tmmbr_push"
#: A TMMBR push was lost in flight (clients keep the previous config).
TMMBR_LOST = "tmmbr_lost"
#: The applied configuration changed at least one (subscriber, publisher)
#: stream assignment.
SUBSCRIPTION_CHANGE = "subscription_change"
#: A chaos fault was applied.
FAULT_INJECTED = "fault_injected"
#: A controller shard was taken down (Sec. 7 handover).
SHARD_KILLED = "shard_killed"
#: A controller shard joined the ring.
SHARD_ADDED = "shard_added"
#: A meeting was re-homed onto another shard.
MEETING_REHOMED = "meeting_rehomed"
#: A stream event entered a meeting's ingress mailbox (mints the cid of
#: the decision window it opens).
INGRESS_ENQUEUED = "ingress_enqueued"
#: A decision window closed: its mailbox batch was drained for a solve.
INGRESS_DEQUEUED = "ingress_dequeued"
#: The backpressure ladder shed a decision to the single-stream fallback.
INGRESS_SHED = "ingress_shed"

#: Every built-in event kind, for docs and validation.
ALL_EVENT_KINDS = (
    TIME_TRIGGER,
    SOLVE_SERVED,
    TMMBR_PUSH,
    TMMBR_LOST,
    SUBSCRIPTION_CHANGE,
    FAULT_INJECTED,
    SHARD_KILLED,
    SHARD_ADDED,
    MEETING_REHOMED,
    INGRESS_ENQUEUED,
    INGRESS_DEQUEUED,
    INGRESS_SHED,
)


@dataclass
class Event:
    """One structured event.

    Attributes:
        t: simulated seconds (never wall clock — determinism).
        seq: per-log monotonic sequence number (total order at equal t).
        kind: event kind (see the built-in vocabulary above).
        meeting: meeting id the event concerns ("" for cluster-wide).
        cid: correlation id linking this event to its causal chain.
        shard: shard the event happened on ("" when not shard-scoped).
        attrs: small JSON-friendly payload (sorted on encode).
    """

    t: float
    seq: int
    kind: str
    meeting: str = ""
    cid: str = ""
    shard: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "record": "event",
            "t": round(self.t, 6),
            "seq": self.seq,
            "kind": self.kind,
            "meeting": self.meeting,
            "cid": self.cid,
            "shard": self.shard,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }

    @classmethod
    def from_dict(cls, row: Dict[str, object]) -> "Event":
        return cls(
            t=float(row["t"]),
            seq=int(row["seq"]),
            kind=str(row["kind"]),
            meeting=str(row.get("meeting", "")),
            cid=str(row.get("cid", "")),
            shard=str(row.get("shard", "")),
            attrs=dict(row.get("attrs", {})),
        )


class EventLog:
    """A bounded, deterministic, in-memory event log.

    Thread-safe enough for the repo's GIL-bound workloads: emission takes
    a lock only for the sequence counter and ring append.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.emitted = 0
        self.dropped = 0
        self._cid_counters: Dict[str, int] = {}

    # -- emission -------------------------------------------------------- #

    def mint(self, meeting: str) -> str:
        """Mint a deterministic correlation id for one meeting.

        Ids are ``<meeting>#<n>`` with a per-meeting counter, so replayed
        seeded runs mint identical ids in identical order.
        """
        with self._lock:
            n = self._cid_counters.get(meeting, 0) + 1
            self._cid_counters[meeting] = n
        return f"{meeting}#{n}"

    def last_cid(self, meeting: str) -> str:
        """The most recently minted cid for ``meeting`` ("" before any).

        Lets chains that mint a *successor* cid (time-trigger refreshes,
        re-home degradations) stamp a ``parent_cid`` attribute linking to
        their predecessor, so trace trees keep lineage instead of
        orphaning the new chain.
        """
        with self._lock:
            n = self._cid_counters.get(meeting, 0)
        return f"{meeting}#{n}" if n else ""

    def emit(
        self,
        kind: str,
        t: float,
        meeting: str = "",
        cid: str = "",
        shard: str = "",
        **attrs: object,
    ) -> Event:
        """Append one event; evicts the oldest on overflow."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            event = Event(
                t=t,
                seq=seq,
                kind=kind,
                meeting=meeting,
                cid=cid,
                shard=shard,
                attrs=attrs,
            )
            evicted = len(self._events) >= self.capacity
            if evicted:
                self.dropped += 1
            self._events.append(event)
            self.emitted += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.EVENTS_EMITTED, kind=kind).inc()
            if evicted:
                reg.counter(obs_names.EVENTS_DROPPED).inc()
        return event

    # -- access ---------------------------------------------------------- #

    @property
    def events(self) -> List[Event]:
        """Retained events, in emission order."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def for_meeting(self, meeting: str) -> List[Event]:
        """Retained events concerning one meeting, in order."""
        return [e for e in self.events if e.meeting == meeting]

    def kinds(self) -> Dict[str, int]:
        """Event counts per kind (sorted)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return dict(sorted(out.items()))

    # -- serialization ---------------------------------------------------- #

    def header_dict(self) -> Dict[str, object]:
        return {
            "record": "meta",
            "schema": EVENTS_SCHEMA,
            "events": len(self._events),
            "emitted": self.emitted,
            "dropped": self.dropped,
        }

    def to_jsonl_lines(self) -> List[str]:
        rows = [self.header_dict()] + [e.to_dict() for e in self.events]
        return [
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in rows
        ]

    def to_jsonl(self) -> str:
        return "\n".join(self.to_jsonl_lines()) + "\n"

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the log (header + events) to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path

    def digest(self) -> str:
        """SHA-256 over the canonical JSONL encoding (determinism checks)."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    @classmethod
    def from_jsonl_lines(cls, lines: Iterable[str]) -> "EventLog":
        """Reconstruct a log from its JSONL encoding (round-trips)."""
        header: Optional[Dict[str, object]] = None
        events: List[Event] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("record") == "meta":
                if row.get("schema") != EVENTS_SCHEMA:
                    raise ValueError(
                        f"unsupported event schema {row.get('schema')!r}"
                    )
                header = row
            elif row.get("record") == "event":
                events.append(Event.from_dict(row))
        log = cls(capacity=max(DEFAULT_CAPACITY, len(events) or 1))
        for event in events:
            log._events.append(event)
        log._seq = (events[-1].seq + 1) if events else 0
        log.emitted = int(header.get("emitted", len(events))) if header else len(events)
        log.dropped = int(header.get("dropped", 0)) if header else 0
        return log

    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "EventLog":
        return cls.from_jsonl_lines(Path(path).read_text().splitlines())


# --------------------------------------------------------------------- #
# The process-wide slot (off by default)
# --------------------------------------------------------------------- #

_LOG: Optional[EventLog] = None


def active_event_log() -> Optional[EventLog]:
    """The installed :class:`EventLog`, or ``None`` (events off)."""
    return _LOG


def set_event_log(log: Optional[EventLog]) -> None:
    """Install (or, with ``None``, remove) the process-wide event log."""
    global _LOG
    _LOG = log


@contextmanager
def record_events(
    log: Optional[EventLog] = None, capacity: int = DEFAULT_CAPACITY
) -> Iterator[EventLog]:
    """Context manager: record events, then restore the previous log.

    ::

        with record_events() as log:
            plane.run_stream(stream)
        log.write_jsonl("events.jsonl")
    """
    global _LOG
    previous = _LOG
    _LOG = log if log is not None else EventLog(capacity=capacity)
    try:
        yield _LOG
    finally:
        _LOG = previous
