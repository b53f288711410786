"""Design for failure (Sec. 7).

Two mechanisms keep a meeting alive when things break:

* **server-side fallback** — "when an exception is raised, GSO-Simulcast
  would ask clients to fall back to single stream configuration so that
  the service could continue, however, at the cost of reduced QoE."
  :func:`single_stream_fallback` builds that degenerate solution directly
  from the problem, without running the solver.

* **client-side downgrade** — "while a server instructs a client to send
  multiple streams, however, only a low bitrate stream is received.  In
  such a scenario, GSO-Simulcast implements a downgrade logic that
  automatically switches the high-bitrate subscription to a low-bitrate
  subscription."  The detector is
  :meth:`~repro.control.feedback.FeedbackExecutor.dead_configured_streams`
  (a configured stream that is silent while its client is demonstrably
  up); ``ConferenceBackend`` turns each one it reports into a dead-stream
  cap that excludes that stream from the next solves, so the subscription
  moves to a lower stream that still flows.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.constraints import Problem
from ..core.solution import PolicyEntry, Solution
from ..core.types import ClientId, Resolution, StreamSpec


def single_stream_fallback(problem: Problem) -> Solution:
    """The degenerate safe configuration: one small stream per publisher.

    Every publisher keeps only its *lowest* bitrate stream; every
    subscriber of that publisher receives it (capped by the subscription
    resolution; edges whose cap excludes the stream get nothing).  The
    result always satisfies the codec constraints and, because the chosen
    streams are minimal, has the best possible chance of satisfying the
    network constraints; downlink-overflowing assignments are dropped
    smallest-publisher-last to restore feasibility.
    """
    policies: Dict[ClientId, Dict[Resolution, PolicyEntry]] = {}
    assignments: Dict[ClientId, Dict[ClientId, StreamSpec]] = {}
    audiences: Dict[ClientId, Set[ClientId]] = {}
    chosen: Dict[ClientId, StreamSpec] = {}
    for pub in problem.publishers:
        streams = problem.feasible_streams[pub]
        if not streams:
            continue
        # Tie-break equal bitrates by resolution so the chosen fallback
        # stream is invariant to the ordering of the feasible set.
        smallest = min(streams, key=lambda s: (s.bitrate_kbps, s.resolution))
        if smallest.bitrate_kbps > problem.uplink_budget(problem.owner(pub)):
            continue
        chosen[pub] = smallest
    for edge in problem.subscriptions:
        pub = problem.canonical(edge.publisher)
        stream = chosen.get(pub)
        if stream is None or stream.resolution > edge.max_resolution:
            continue
        current = assignments.setdefault(edge.subscriber, {})
        # Respect the downlink budget: add publishers until it is full.
        used = sum(s.bitrate_kbps for s in current.values())
        if used + stream.bitrate_kbps > problem.downlink_budget(edge.subscriber):
            continue
        current[edge.publisher] = stream
        audiences.setdefault(pub, set()).add(edge.subscriber)
    for pub, audience in audiences.items():
        stream = chosen[pub]
        policies[pub] = {
            stream.resolution: PolicyEntry(
                stream=stream, audience=frozenset(audience)
            )
        }
    # Uplink check per owner: drop publishers whose owner would overflow.
    by_owner: Dict[ClientId, List[ClientId]] = {}
    for pub in policies:
        by_owner.setdefault(problem.owner(pub), []).append(pub)
    for owner, pubs in by_owner.items():
        total = sum(
            e.bitrate_kbps
            for pub in pubs
            for e in policies[pub].values()
        )
        budget = problem.uplink_budget(owner)
        for pub in sorted(
            pubs,
            key=lambda p: -next(iter(policies[p].values())).bitrate_kbps,
        ):
            if total <= budget:
                break
            entry = next(iter(policies[pub].values()))
            total -= entry.bitrate_kbps
            for member in entry.audience:
                for literal in [
                    lp
                    for lp, s in assignments.get(member, {}).items()
                    if problem.canonical(lp) == pub
                ]:
                    del assignments[member][literal]
            del policies[pub]
    return Solution(policies=policies, assignments=assignments, iterations=0)

