"""Step 1 (Knapsack): downlink + subscription constraints (Sec. 4.1.1).

For each subscriber ``i'`` independently, choose at most one stream from each
followed publisher's edge-feasible set ``S_ii'`` so that total QoE utility is
maximized under the downlink budget ``B_d_i'`` — Eq. 1-4.  The per-subscriber
problems are independent multi-choice knapsacks, solved by pseudo-polynomial
dynamic programming.

The output is the *request* set ``D_i'`` of Eq. 6: which (publisher, stream)
pairs each subscriber asks for.  Whether those requests are honoured at the
requested bitrate is decided by Steps 2-3.

The step does its work per *distinct class structure*, not per
subscriber.  Subscribers are grouped by their ``Problem.shape_index``
shape (same ordered ``(publisher, max_resolution)`` edges, plus the same
held resolutions when an incumbent is passed); a group builds its classes
once, fetches **one** :class:`~repro.core.mckp.CapacityProfile` (from the
process-wide :class:`~repro.core.engine.MckpInstanceCache` or one bounded
DP table) and answers every member with a bisect on its downlink budget.
A webinar's viewers, or Fig. 6c's gallery view, cost one table however
many they are.  :func:`solve_subscriber` (one DP per subscriber) is the
reference the differential tests compare this against, and the
brute-force path of Fig. 6.

The groups are carried into Step 2: subscribers that shared one answer
are reported in ``groups`` so :func:`~repro.core.merge.merge_step` merges
whole audiences at once.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import names as obs_names
from ..obs.registry import get_registry
from .constraints import Problem, Subscription
from .engine import EngineStats, MckpInstanceCache
from .mckp import (
    CapacityProfile,
    Item,
    kernel_stats,
    solve_mckp_dp,
    solve_mckp_exhaustive,
)
from .types import ClientId, Resolution, StreamSpec

#: Step-1 output: per subscriber, per followed publisher, the requested stream.
Requests = Dict[ClientId, Dict[ClientId, StreamSpec]]

#: Incumbent assignments: (subscriber, literal publisher) -> the resolution
#: currently being received.  Items at the incumbent resolution get a small
#: QoE bonus so noise-level input changes do not flip assignments (stream
#: switches cost keyframes and visible quality churn); genuinely better
#: assignments still win.
Incumbent = Dict[Tuple[ClientId, ClientId], Resolution]

#: The resolutions one subscriber holds, aligned with its ordered edges;
#: ``None`` when it holds none.
_Held = Optional[Tuple[Optional[Resolution], ...]]

#: The MCKP classes of one shape, ready to solve or look up:
#: ``(classes, class_streams, class_pubs)``.  Classes, stream tuples and
#: publishers are positionally aligned; picks index into the first two.
_Instance = Tuple[
    Tuple[Tuple[Item, ...], ...],
    List[Tuple[StreamSpec, ...]],
    List[ClientId],
]

#: Per-step memo of edge classes: (canonical publisher, resolution cap) ->
#: (items, streams).  Within one knapsack step the feasible sets are fixed,
#: so every shape sharing an edge shares the built class.
_EdgeClasses = Dict[
    Tuple[ClientId, Resolution],
    Tuple[Tuple[Item, ...], Tuple[StreamSpec, ...]],
]


def _edge_class(
    problem: Problem,
    edge: Subscription,
    feasible: Optional[Mapping[ClientId, Sequence[StreamSpec]]],
    edge_cache: Optional[_EdgeClasses],
) -> Tuple[Tuple[Item, ...], Tuple[StreamSpec, ...]]:
    """The (items, streams) class of one edge, shared across subscribers.

    The edge-feasible set ``S_ii'`` depends only on the canonical
    publisher's current feasible streams and the edge's resolution cap, so
    within one step every edge with the same (publisher, cap) pair yields
    the same class — gallery-view meetings build each class once instead
    of once per subscriber.
    """
    key = (problem.canonical(edge.publisher), edge.max_resolution)
    cached = edge_cache.get(key) if edge_cache is not None else None
    if cached is None:
        streams = tuple(problem.feasible_for_edge(edge, restricted=feasible))
        items = tuple((s.bitrate_kbps, s.qoe) for s in streams)
        cached = (items, streams)
        if edge_cache is not None:
            edge_cache[key] = cached
    return cached


def _held(
    incumbent: Incumbent,
    subscriber: ClientId,
    edges: Sequence[Subscription],
) -> _Held:
    held = tuple(incumbent.get((subscriber, e.publisher)) for e in edges)
    return held if any(h is not None for h in held) else None


def _instance(
    problem: Problem,
    edges: Sequence[Subscription],
    held: _Held,
    feasible: Optional[Mapping[ClientId, Sequence[StreamSpec]]],
    stickiness: float,
    edge_cache: Optional[_EdgeClasses] = None,
) -> Optional[_Instance]:
    """Build the MCKP classes (Eq. 1-4) of subscribers following ``edges``
    and holding ``held``, or ``None`` when no class is fulfillable."""
    classes: List[Tuple[Item, ...]] = []
    class_streams: List[Tuple[StreamSpec, ...]] = []
    class_pubs: List[ClientId] = []
    for k, edge in enumerate(edges):
        resolution = held[k] if held is not None else None
        if resolution is None:
            items, streams = _edge_class(problem, edge, feasible, edge_cache)
        else:
            # Stickiness personalizes the class values, so edges with an
            # incumbent bypass the shared per-edge memo.
            streams = tuple(
                problem.feasible_for_edge(edge, restricted=feasible)
            )
            items = tuple(
                (
                    s.bitrate_kbps,
                    s.qoe * (1.0 + stickiness)
                    if s.resolution == resolution
                    else s.qoe,
                )
                for s in streams
            )
        if not streams:
            continue
        classes.append(items)
        class_streams.append(streams)
        class_pubs.append(edge.publisher)
    if not classes:
        return None
    return tuple(classes), class_streams, class_pubs


def _fan_out(
    instance: _Instance, picks: Sequence[Optional[int]]
) -> Dict[ClientId, StreamSpec]:
    """Map per-class picks back to the requested streams."""
    _, class_streams, class_pubs = instance
    return {
        pub: streams[pick]
        for pub, streams, pick in zip(class_pubs, class_streams, picks)
        if pick is not None
    }


def solve_subscriber(
    problem: Problem,
    subscriber: ClientId,
    feasible: Optional[Mapping[ClientId, Sequence[StreamSpec]]] = None,
    granularity: int = 1,
    exhaustive: bool = False,
    incumbent: Optional[Incumbent] = None,
    stickiness: float = 0.0,
) -> Dict[ClientId, StreamSpec]:
    """Solve Eq. 1-4 for one subscriber.

    Args:
        problem: the orchestration problem.
        subscriber: the subscriber ``i'`` to solve for.
        feasible: optional per-publisher restriction of the feasible sets
            (Step 3 shrinks them between iterations).
        granularity: DP capacity grid step in kbps.
        exhaustive: solve by exact enumeration instead of DP (brute-force
            baseline; exponential).
        incumbent: current (subscriber, publisher) -> resolution
            assignments; used with ``stickiness``.
        stickiness: relative QoE bonus applied to items whose resolution
            matches the incumbent assignment of their edge (switch
            damping; 0 disables).

    Returns:
        The requested streams ``D_i'`` as a publisher -> stream mapping.
        Publishers whose class was skipped are absent.
    """
    edges = problem.ordered_followed_by(subscriber)
    held = None if incumbent is None else _held(incumbent, subscriber, edges)
    instance = _instance(problem, edges, held, feasible, stickiness)
    if instance is None:
        return {}
    classes = instance[0]
    capacity = problem.downlink_budget(subscriber)
    if exhaustive:
        result = solve_mckp_exhaustive(classes, capacity)
    else:
        result = solve_mckp_dp(classes, capacity, granularity=granularity)
    return _fan_out(instance, result.picks)


def knapsack_step(
    problem: Problem,
    feasible: Optional[Mapping[ClientId, Sequence[StreamSpec]]] = None,
    granularity: int = 1,
    exhaustive: bool = False,
    incumbent: Optional[Incumbent] = None,
    stickiness: float = 0.0,
    subscribers: Optional[Sequence[ClientId]] = None,
    cache: Optional[MckpInstanceCache] = None,
    stats: Optional[EngineStats] = None,
    groups: Optional[Requests] = None,
) -> Requests:
    """Run Step 1 for every subscriber (the |I| independent knapsacks).

    Args:
        subscribers: restrict the step to these subscribers (the solver's
            dirty set); ``None`` solves all of ``problem.subscribers``.
        exhaustive: solve every subscriber by exact enumeration instead
            (the Fig. 6 brute-force baseline; no profile, cache or stats).
        cache: optional process-wide profile cache consulted before
            building a table.
        stats: optional per-solve accounting filled by the DP path.
        groups: optional map the step records its answer sharing in, for
            :func:`~repro.core.merge.merge_step`: each solved subscriber
            maps to a request map *object* shared by every subscriber the
            same answer served.  The shared maps equal the returned ones
            and must not be mutated.

    Returns the request map ``{subscriber: D_i'}`` for the selected
    subscribers.  Subscribers with no fulfillable request map to an empty
    dict.
    """
    subs = problem.subscribers if subscribers is None else list(subscribers)
    if exhaustive:
        requests = {
            sub: solve_subscriber(
                problem,
                sub,
                feasible=feasible,
                exhaustive=True,
                incumbent=incumbent,
                stickiness=stickiness,
            )
            for sub in subs
        }
        if groups is not None:
            groups.update(requests)
        return requests

    shape_of, edges_of = problem.shape_index()
    #: (shape, held) -> its subscribers, first-seen order.
    members: Dict[Tuple[Optional[int], _Held], List[ClientId]] = {}
    for sub in subs:
        shape = shape_of.get(sub)
        held = (
            None
            if incumbent is None or shape is None
            else _held(incumbent, sub, edges_of[shape])
        )
        members.setdefault((shape, held), []).append(sub)

    # The request map's insertion order is part of the byte-identity
    # contract: seed it in subscriber order, fill it group by group.
    requests: Requests = dict.fromkeys(subs)
    shared: Requests = groups if groups is not None else {}
    edge_cache: _EdgeClasses = {}
    nothing: Dict[ClientId, StreamSpec] = {}
    answered = answers = hits = misses = 0
    for (shape, held), group in members.items():
        edges = () if shape is None else edges_of[shape]
        instance = _instance(problem, edges, held, feasible, stickiness, edge_cache)
        if instance is None:
            for sub in group:
                requests[sub] = {}
                shared[sub] = nothing
            continue
        classes = instance[0]
        key = (granularity, classes)
        profile = cache.get(key) if cache is not None else None
        if profile is None:
            misses += 1
            profile = CapacityProfile(classes, granularity)
            if cache is not None:
                cache.put(key, profile)
        else:
            hits += 1
        #: breakpoint -> the request map every member on it shares.
        templates: Dict[int, Dict[ClientId, StreamSpec]] = {}
        for sub in group:
            capacity = problem.downlink_budget(sub)
            bucket = profile.index(capacity)
            template = templates.get(bucket)
            if template is None:
                picks = profile.solution(capacity, bucket).picks
                template = templates[bucket] = _fan_out(instance, picks)
            requests[sub] = dict(template)
            shared[sub] = template
        answered += len(group)
        answers += len(templates)

    kernel_stats().batched_instances += answered
    if stats is not None:
        stats.step1_solved += len(subs)
        stats.deduped += answered - answers
        stats.cache_hits += hits
        stats.cache_misses += misses
    if answered > answers:
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.MCKP_INSTANCES_DEDUPED).inc(answered - answers)
    return requests
