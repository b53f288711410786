"""Stream-level fault injection: chaos applied to the event stream itself.

Feedback-path faults are injected where they happen — on the control
messages themselves: a **dropped SEMB** never reaches the dispatcher, a
**delayed SEMB** is offered late.  Both are expressed as windows over the
stream, so a seeded run replays to the byte.  The chaos runner maps its
``drop_report``/``delay_report`` faults onto these windows
(:func:`repro.chaos.runner.stream_faults`).

Delayed offers are rescheduled at ``at_s + delay_s`` through the
simulator, whose heap orders equal-time callbacks by insertion sequence
— the same ``(time, sequence)`` stability contract
:class:`~repro.net.link.FaultyLink` delay buffers guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .events import KIND_SEMB, StreamEvent

#: Stream fault kinds.
DROP_SEMB = "drop_semb"
DELAY_SEMB = "delay_semb"

STREAM_FAULT_KINDS = (DROP_SEMB, DELAY_SEMB)

#: Dispatcher dispositions.
DELIVER = "deliver"
DROP = "drop"
DELAY = "delay"


@dataclass(frozen=True)
class StreamFault:
    """One fault window over the event stream.

    Attributes:
        kind: :data:`DROP_SEMB` or :data:`DELAY_SEMB`.
        meeting: affected meeting id ("" = every meeting).
        start_s / end_s: half-open window ``[start_s, end_s)`` of event
            timestamps the fault applies to.
        delay_s: hold time for :data:`DELAY_SEMB`.
    """

    kind: str
    meeting: str = ""
    start_s: float = 0.0
    end_s: float = float("inf")
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in STREAM_FAULT_KINDS:
            raise ValueError(
                f"unknown stream fault {self.kind!r}; "
                f"known: {', '.join(STREAM_FAULT_KINDS)}"
            )
        if not (math.isfinite(self.start_s) and math.isfinite(self.delay_s)):
            raise ValueError("fault start_s and delay_s must be finite")
        if math.isnan(self.end_s):
            raise ValueError("fault end_s must not be NaN")
        if self.end_s < self.start_s:
            raise ValueError("fault window must end at or after it starts")
        if self.kind == DELAY_SEMB and self.delay_s <= 0:
            raise ValueError("delay_semb needs a positive delay_s")

    def matches(self, event: StreamEvent) -> bool:
        """Whether this fault applies to one stream event."""
        if event.kind != KIND_SEMB:
            return False
        if self.meeting and event.meeting != self.meeting:
            return False
        return self.start_s <= event.at_s < self.end_s


class StreamFaultInjector:
    """Decides each event's disposition against a set of fault windows
    (the plane counts what it decided, in ``PlaneStats``)."""

    def __init__(self, faults: Sequence[StreamFault] = ()) -> None:
        self.faults = list(faults)

    def disposition(self, event: StreamEvent) -> Tuple[str, float]:
        """``(DELIVER|DROP|DELAY, extra_delay_s)`` for one event.

        Drops win over delays; overlapping delay windows compound.
        """
        delay = 0.0
        delayed = False
        for fault in self.faults:
            if not fault.matches(event):
                continue
            if fault.kind == DROP_SEMB:
                return DROP, 0.0
            delayed = True
            delay += fault.delay_s
        if delayed:
            return DELAY, delay
        return DELIVER, 0.0
