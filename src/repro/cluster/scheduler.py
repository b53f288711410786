"""The Fig. 12 call-interval envelope, as the ingress plane paces with it.

The paper's trigger policy — solve at least every ``max_interval_s``, at
most every ``min_interval_s`` — is applied per meeting by the ingress
plane's decision windows (:mod:`repro.ingress.plane`).  This module
holds the one piece of that policy the plane asks its backend for: how
long a decision window stays open at a given mailbox depth.
"""

from __future__ import annotations

#: Solve-request triggers (the ``trigger`` label of
#: ``repro_cluster_solve_requests_total``).
TRIGGER_EVENT = "event"
TRIGGER_TIME = "time"
TRIGGER_REHOME = "rehome"
TRIGGER_SYNC = "sync"


def backpressure_window_s(
    depth: int, capacity: int, min_interval_s: float, max_interval_s: float
) -> float:
    """The coalesce window for a mailbox at ``depth`` of ``capacity``.

    An empty mailbox debounces at the ``min_interval_s`` floor, and the
    window widens linearly with queue depth up to the ``max_interval_s``
    ceiling — a falling-behind meeting coalesces more reports per solve
    instead of queueing further behind.
    """
    if depth <= 1 or capacity <= 1:
        return min_interval_s
    frac = min(1.0, (depth - 1) / (capacity - 1))
    return min_interval_s + frac * (max_interval_s - min_interval_s)
