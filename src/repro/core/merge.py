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
merged ladder chosen each iteration is visible per publisher in the KMR
solver trace (``merged_ladders`` in ``docs/OBSERVABILITY.md``'s schema),
and the step's wall clock is recorded under the ``kmr.merge`` span.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from .constraints import Problem
from .knapsack import Requests
from .solution import PolicyEntry
from .types import ClientId, Resolution, StreamSpec

#: Step-2 output: per publisher, per resolution, the merged policy entry.
Policies = Dict[ClientId, Dict[Resolution, PolicyEntry]]

#: One publisher's ``U_i``: (subscribers, stream) pairs.  The subscribers
#: of a pair all asked for that stream; they are sorted, and the pairs
#: are ordered by their first subscriber.
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
    Iteration order is made deterministic by sorting subscribers.

    ``groups`` is Step 1's answer sharing (see
    :func:`~repro.core.knapsack.knapsack_step`): subscribers mapped to the
    same request-map object are inverted together, as one pair per
    requested stream.  Without it every subscriber is its own group; the
    result only differs in how the same audiences are split into pairs.
    """
    if groups is None:
        groups = requests
    #: id(shared request map) -> (the map, its subscribers in sorted order).
    grouped: Dict[int, Tuple[Dict[ClientId, StreamSpec], List[ClientId]]] = {}
    for sub in sorted(requests):
        per_pub = groups[sub]
        group = grouped.get(id(per_pub))
        if group is None:
            grouped[id(per_pub)] = (per_pub, [sub])
        else:
            group[1].append(sub)
    served: Dict[ClientId, Asked] = {}
    aliases = problem.aliases
    for per_pub, subs in grouped.values():
        for pub, stream in sorted(per_pub.items()):
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
    # Audiences are sorted before freezing: a set's iteration (and pickle)
    # order depends on its insertion order, which must not depend on how
    # Step 1 happened to group the subscribers.
    return {
        res: PolicyEntry(
            stream=floor, audience=frozenset(sorted(chain.from_iterable(parts)))
        )
        for res, (floor, parts) in by_res.items()
    }


def merge_step(
    problem: Problem,
    requests: Requests,
    groups: Optional[Requests] = None,
) -> Policies:
    """Run Step 2 for every publisher.

    Returns the potential policy map ``{publisher: P_i}``.  Publishers nobody
    requested are absent (they will be told to stop publishing — the Fig. 3a
    wasted-uplink fix).  ``groups`` is Step 1's answer sharing, which lets
    whole audiences merge at once; the policies are the same without it.
    """
    served = invert_requests(problem, requests, groups)
    return {pub: merge_publisher(asked) for pub, asked in served.items()}
