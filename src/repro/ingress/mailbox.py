"""Per-meeting bounded mailboxes: the ingress demand buffer.

One mailbox per meeting.  The box is FIFO within its meeting (ingress
replays stay causal) and **bounded**: when a put would exceed capacity,
the *oldest* entry is evicted — newest-snapshot-wins, the same
coalescing discipline the shard scheduler applies to its pending slot —
and the overflow is flagged so the plane can shed the meeting's next
decision instead of pretending it kept up.  The plane owns the
accounting (:class:`~repro.ingress.plane.PlaneStats`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from .events import StreamEvent


@dataclass
class Envelope:
    """One queued event plus its ingress-minted correlation id."""

    event: StreamEvent
    cid: str = ""


class Mailbox:
    """A bounded FIFO of :class:`Envelope`."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: Deque[Envelope] = deque()
        #: Set when an eviction happened since the plane last decided.
        self.overflowed = False

    @property
    def depth(self) -> int:
        """Entries currently queued."""
        return len(self._items)

    def put(self, envelope: Envelope) -> Optional[Envelope]:
        """Enqueue; returns the evicted envelope when the box was full."""
        evicted: Optional[Envelope] = None
        if len(self._items) >= self.capacity:
            evicted = self._items.popleft()
            self.overflowed = True
        self._items.append(envelope)
        return evicted

    def pop(self) -> Envelope:
        """Dequeue the oldest envelope (the box must not be empty)."""
        return self._items.popleft()

    def drain(self) -> List[Envelope]:
        """Pop everything queued right now (the coalesce window closes)."""
        out = list(self._items)
        self._items.clear()
        return out

    def take_overflow(self) -> bool:
        """Read-and-clear the overflow flag (consumed per decision)."""
        flag = self.overflowed
        self.overflowed = False
        return flag
