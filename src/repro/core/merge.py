"""Step 2 (Merge): codec capability constraints (Sec. 4.1.2).

Step 1's per-subscriber requests, inverted to the publisher side, give each
publisher the set ``U_i`` of (subscriber, stream) pairs it is asked to serve
(Eq. 7).  A codec can emit at most one encoding per resolution, so requests
at the same resolution but different bitrates must be *merged*: the paper's
``Meg()`` function (Eq. 10-12) keeps the **minimum** requested bitrate —
lowering a stream can never violate a subscriber's downlink budget, whereas
raising one could.

The output is the potential policy set ``P_i`` per publisher (Eq. 13): at
most one ``(audience, bitrate)`` entry per resolution.

Worked micro-example (the Fig. 5 narration): if Step 1 had B request
``A@720p/1500`` and C request ``A@720p/1200``, the codec constraint forbids
A encoding 720p twice, so ``Meg()`` collapses the group to the minimum —
one 720p encoding at 1200 kbps serving the audience ``{B, C}``.  B loses
300 kbps of quality it could afford, but C's downlink stays respected;
min-merge is the only direction that preserves Step 1's downlink
feasibility unconditionally (Eq. 12's argument).

Merging never consults the uplink: a merged ``P_i`` may well exceed the
publisher's budget.  That check — and the fix/delete escalation when it
fails — is Step 3's job (:mod:`repro.core.reduction`, Eqs. 14-20).  The
merged ladder chosen each iteration is narrated per publisher by
:func:`~repro.core.explain.explain_solve` (``repro trace show --cid``
replays it for one served decision), and the step's wall clock is
recorded under the ``kmr.merge`` span.

A merge can also start from an earlier one (:func:`merge_step`'s
``since``): the subscribers whose request changed are moved between
audiences and every entry they did not touch is the earlier merge's
object (``docs/SOLVER.md``, "Replaying the previous decision").
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .constraints import Problem
from .knapsack import Requests
from .solution import PolicyEntry
from .types import ClientId, Resolution, StreamSpec

#: Step-2 output: per publisher, per resolution, the merged policy entry.
Policies = Dict[ClientId, Dict[Resolution, PolicyEntry]]

#: One publisher's ``U_i``: (subscribers, stream) pairs.  The subscribers
#: of a pair all asked for that stream.
Asked = List[Tuple[Sequence[ClientId], StreamSpec]]


def invert_requests(
    problem: Problem,
    requests: Requests,
    groups: Optional[Requests] = None,
) -> Dict[ClientId, Asked]:
    """Build ``U_i`` (Eq. 7): per publisher, the (subscribers, stream) pairs.

    Virtual publishers are folded back into their canonical targets here —
    this is exactly the Sec. 4.4 prescription: "at the beginning of Step 2,
    we merge X' with X, so that we treat them again as the same publisher".
    The pairs come in request order; nothing downstream depends on it
    (within one publisher bitrates are unique, so the floor of a group is
    one stream whichever order it is met in, and Step 3 rebuilds the
    policy map in sorted order).

    ``groups`` is Step 1's answer sharing (see
    :func:`~repro.core.knapsack.knapsack_step`): subscribers mapped to the
    same request-map object are inverted together, as one pair per
    requested stream.  Without it every subscriber is its own group; the
    result only differs in how the same audiences are split into pairs.
    """
    if groups is None:
        groups = requests
    #: id(shared request map) -> (the map, its subscribers).
    grouped: Dict[int, Tuple[Dict[ClientId, StreamSpec], List[ClientId]]] = {}
    for sub in requests:
        per_pub = groups[sub]
        group = grouped.get(id(per_pub))
        if group is None:
            grouped[id(per_pub)] = (per_pub, [sub])
        else:
            group[1].append(sub)
    served: Dict[ClientId, Asked] = {}
    aliases = problem.aliases
    for per_pub, subs in grouped.values():
        for pub, stream in per_pub.items():
            served.setdefault(aliases.get(pub, pub), []).append((subs, stream))
    return served


def merge_publisher(asked: Asked) -> Dict[Resolution, PolicyEntry]:
    """Apply ``Meg()`` to one publisher's ``U_i``.

    Partitions the requests by resolution (Eq. 8-9) and, for each non-empty
    partition ``U_i^R``, emits a policy entry with audience ``M_i^R`` (all
    requesting subscribers) and bitrate ``s_i^R = min`` over the partition
    (Eq. 11-12).
    """
    #: resolution -> [the minimum-bitrate stream so far, the audience parts].
    by_res: Dict[Resolution, list] = {}
    for subs, stream in asked:
        entry = by_res.get(stream.resolution)
        if entry is None:
            by_res[stream.resolution] = [stream, [subs]]
        else:
            if stream.bitrate_kbps < entry[0].bitrate_kbps:
                entry[0] = stream
            entry[1].append(subs)
    # An audience is frozen in whatever order its members came: every
    # reader whose output depends on order sorts it (pickle, digest,
    # narration, summary, the solver's dirty set).
    return {
        res: PolicyEntry(stream=floor, audience=frozenset(chain.from_iterable(parts)))
        for res, (floor, parts) in by_res.items()
    }


#: What :func:`merge_step` may start from: the policies of an earlier
#: merge and, for each subscriber whose request map differs from the one
#: that merge saw, ``(subscriber, its request map then)``.
Since = Tuple[Policies, Sequence[Tuple[ClientId, Mapping[ClientId, StreamSpec]]]]


def _merge_since(problem: Problem, current: Requests, since: Since) -> Policies:
    """The merge of ``current``, built from an earlier merge by moving the
    subscribers whose request changed.

    A moved subscriber leaves the audience of each stream it no longer
    asks for and joins the audience of each stream it asks for now.  An
    entry's bitrate is the minimum its audience asked (Eq. 12), so a
    join can only lower it, and a leave can only raise it when the
    leaver asked that minimum: such a publisher, or one a join ties the
    floor of with another stream, is re-merged from its followers'
    current requests.  The problem has no aliases: a subscriber reaches a
    publisher through one edge, and every key is the edge's id.  Untouched
    publishers keep the earlier merge's entry objects, and with nobody
    moved the result is the earlier map itself; it is never modified.
    """
    earlier, moved = since
    #: publisher -> resolution -> (who leaves, who joins), each with the
    #: stream it asked or asks.
    touched: Dict[
        ClientId,
        Dict[Resolution, Tuple[Dict[ClientId, StreamSpec], Dict[ClientId, StreamSpec]]],
    ] = {}

    def side(pub: ClientId, stream: StreamSpec, joins: int) -> Dict[ClientId, StreamSpec]:
        by_res = touched.setdefault(pub, {})
        sides = by_res.get(stream.resolution)
        if sides is None:
            sides = by_res[stream.resolution] = ({}, {})
        return sides[joins]

    for sub, before in moved:
        now = current[sub]
        for pub, was in before.items():
            stream = now.get(pub)
            if stream is was or stream == was:
                continue
            side(pub, was, 0)[sub] = was
            if stream is not None:
                side(pub, stream, 1)[sub] = stream
        for pub, stream in now.items():
            if pub not in before:
                side(pub, stream, 1)[sub] = stream

    if not touched:
        return earlier
    policies = dict(earlier)
    for pub, by_res in touched.items():
        entries = dict(earlier.get(pub, ()))
        incremental = True
        for res, (leavers, joiners) in by_res.items():
            entry = entries.pop(res, None)
            floor = entry.stream if entry is not None else None
            if floor is not None and any(
                s.bitrate_kbps <= floor.bitrate_kbps for s in leavers.values()
            ):
                incremental = False
            for stream in joiners.values():
                if floor is None or stream.bitrate_kbps < floor.bitrate_kbps:
                    floor = stream
                elif stream.bitrate_kbps == floor.bitrate_kbps and stream != floor:
                    incremental = False
            if not incremental:
                break
            audience = (
                entry.audience.difference(leavers).union(joiners)
                if entry is not None
                else frozenset(joiners)
            )
            if audience:
                entries[res] = PolicyEntry(stream=floor, audience=audience)
        if not incremental:
            entries = merge_publisher(
                [
                    ((edge.subscriber,), current[edge.subscriber][edge.publisher])
                    for edge in problem.served_by(pub)
                    if edge.publisher in current[edge.subscriber]
                ]
            )
        if entries:
            policies[pub] = entries
        else:
            policies.pop(pub, None)
    return policies


def merge_step(
    problem: Problem,
    requests: Requests,
    groups: Optional[Requests] = None,
    since: Optional[Since] = None,
) -> Policies:
    """Run Step 2 for every publisher.

    Returns the potential policy map ``{publisher: P_i}``.  Publishers nobody
    requested are absent (they will be told to stop publishing — the Fig. 3a
    wasted-uplink fix).  ``groups`` is Step 1's answer sharing, which lets
    whole audiences merge at once; the policies are the same without it.
    ``since`` starts from an earlier merge instead of from nothing (see
    :data:`Since`): the policies are again the same, entry for entry, and
    the entries no moved subscriber touched are the earlier merge's
    objects.
    """
    if since is not None:
        return _merge_since(problem, requests, since)
    served = invert_requests(problem, requests, groups)
    return {pub: merge_publisher(asked) for pub, asked in served.items()}
