"""Discrete-event simulation core.

Everything in the reproduction that "happens over time" — media packets
traversing links, RTCP feedback, bandwidth estimator updates, controller
invocations — runs inside one :class:`Simulator` event loop with a
simulated clock.  The paper's systems are evaluated on real networks; the
simulator substitutes the IP layer while the protocol layers above it
(RTP/RTCP/SDP and the GSO control plane) run unmodified.

Determinism rules:

* no wall-clock reads — simulated seconds only;
* ties in event time break by insertion order (a monotonically increasing
  sequence number), so identical runs replay identically;
* all randomness is injected through explicit ``random.Random`` instances.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

#: Event callbacks take no arguments; capture context via closures.
EventCallback = Callable[[], None]


@dataclass(frozen=True)
class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    time: float
    seq: int


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule(1.0, lambda: print(sim.now))
        sim.run_until(10.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        # Heap of (time, seq, callback); cancelled events hold callback=None.
        self._heap: List[Tuple[float, int, Optional[EventCallback]]] = []
        self._cancelled: set = set()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Args:
            delay: non-negative offset in simulated seconds.
            callback: zero-argument callable.

        Returns:
            A handle usable with :meth:`cancel`.
        """
        # ``not >=`` also refuses NaN, which would compare false against
        # every heap entry and corrupt the event order.
        if not delay >= 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        seq = next(self._seq)
        heapq.heappush(self._heap, (self._now + delay, seq, callback))
        return EventHandle(self._now + delay, seq)

    def schedule_at(self, when: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        return self.schedule(when - self._now, callback)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (no-op if it already fired)."""
        self._cancelled.add(handle.seq)

    def schedule_window(
        self,
        start_s: float,
        duration_s: float,
        on_start: EventCallback,
        on_end: EventCallback,
    ) -> Tuple[EventHandle, EventHandle]:
        """Schedule a bounded condition: ``on_start`` at ``start_s``,
        ``on_end`` at ``start_s + duration_s`` (absolute times).

        The canonical shape of a transient fault — a link blackout, a
        bandwidth collapse, a feedback outage — is "something breaks, then
        recovers".  This helper keeps the two edges paired so fault
        injectors cannot forget the recovery edge.

        Returns:
            The (start, end) event handles, both cancellable.
        """
        if duration_s < 0:
            raise ValueError("window duration must be non-negative")
        return (
            self.schedule_at(start_s, on_start),
            self.schedule_at(start_s + duration_s, on_end),
        )

    def run_until(self, t_end: float) -> None:
        """Process events in order until the clock reaches ``t_end``.

        The clock is left exactly at ``t_end`` (events scheduled at
        precisely ``t_end`` are executed).  A NaN ``t_end`` is refused:
        it compares false against every event time, so the loop would
        return without firing anything that is due.
        """
        if math.isnan(t_end):
            raise ValueError("cannot run until NaN")
        while self._heap and self._heap[0][0] <= t_end:
            when, seq, callback = heapq.heappop(self._heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._now = when
            if callback is not None:
                callback()
        self._now = max(self._now, t_end)

    def run(self) -> None:
        """Drain every pending event (use only with finite event chains)."""
        while self._heap:
            when, seq, callback = heapq.heappop(self._heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._now = when
            if callback is not None:
                callback()

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired (possibly cancelled) events."""
        return len(self._heap)


class PeriodicTask:
    """A repeating simulator task with drift-free scheduling.

    Used for frame generation, RTCP report timers, receive-rate sampling, etc.
    The callback may call :meth:`stop` to cease rescheduling.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: EventCallback,
        start_offset: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._running = True
        self._next_time = sim.now + start_offset
        sim.schedule(start_offset, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._next_time += self._interval
            self._sim.schedule_at(self._next_time, self._fire)

    def stop(self) -> None:
        """Stop the task; the current in-flight callback still completes."""
        self._running = False

    @property
    def interval(self) -> float:
        """The firing interval in seconds."""
        return self._interval

    @interval.setter
    def interval(self, value: float) -> None:
        """The firing interval in seconds."""
        if value <= 0:
            raise ValueError(f"interval must be positive, got {value}")
        self._interval = value
