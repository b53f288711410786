"""Problem generators for the Fig. 6 algorithm benchmarks."""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import qoe_utility
from repro.core.types import PAPER_RESOLUTIONS, Resolution, StreamSpec


def ladder_with_levels(total_levels: int) -> List[StreamSpec]:
    """A ladder with ``total_levels`` rungs spread over the paper's three
    resolutions (matching Fig. 6b's "number of bitrate levels" axis)."""
    ranges = {
        Resolution.P720: (900, 1500),
        Resolution.P360: (400, 800),
        Resolution.P180: (100, 300),
    }
    per_res = {res: total_levels // 3 for res in PAPER_RESOLUTIONS}
    for k in range(total_levels % 3):
        per_res[PAPER_RESOLUTIONS[k]] += 1
    used = set()
    streams: List[StreamSpec] = []
    for res in PAPER_RESOLUTIONS:
        n = per_res[res]
        if n == 0:
            continue
        lo, hi = ranges[res]
        rates = (
            [hi]
            if n == 1
            else [round(lo + k * (hi - lo) / (n - 1)) for k in range(n)]
        )
        for rate in rates:
            while rate in used:
                rate -= 1
            used.add(rate)
            streams.append(StreamSpec(rate, res, qoe_utility(rate)))
    return streams


def mesh_meeting(
    n_clients: int,
    total_levels: int,
    seed: int = 1,
) -> Problem:
    """A symmetric full-mesh meeting (Fig. 6a/6b workload)."""
    rng = random.Random(seed)
    ladder = ladder_with_levels(total_levels)
    clients = [f"C{k}" for k in range(n_clients)]
    bandwidth = {
        c: Bandwidth(
            uplink_kbps=rng.choice([1200, 2500, 5000]),
            downlink_kbps=rng.choice([800, 1500, 3000, 6000]),
        )
        for c in clients
    }
    subs = [
        Subscription(a, b, Resolution.P720)
        for a in clients
        for b in clients
        if a != b
    ]
    return Problem({c: ladder for c in clients}, bandwidth, subs)


def fanout_meeting(
    n_publishers: int,
    n_subscribers: int,
    total_levels: int,
    seed: int = 1,
) -> Problem:
    """Disjoint publishers/subscribers (Fig. 6c's (pubs, subs, bitrates)
    tuples): every subscriber follows every publisher."""
    rng = random.Random(seed)
    ladder = ladder_with_levels(total_levels)
    pubs = [f"P{k}" for k in range(n_publishers)]
    subs = [f"S{k}" for k in range(n_subscribers)]
    bandwidth = {}
    for p in pubs:
        bandwidth[p] = Bandwidth(rng.choice([2000, 3500, 5000]), 500)
    for s in subs:
        bandwidth[s] = Bandwidth(500, rng.choice([1000, 2000, 4000, 8000]))
    edges = [
        Subscription(s, p, Resolution.P720) for s in subs for p in pubs
    ]
    return Problem({p: ladder for p in pubs}, bandwidth, edges)


def gallery_meeting(
    n_publishers: int,
    n_subscribers: int,
    total_levels: int,
    seed: int = 1,
) -> Problem:
    """A Fig. 6c-style gallery view with constrained uplinks.

    Every subscriber follows every publisher; subscriber downlinks come
    from a handful of plan tiers, so Step-1 MCKP instances repeat heavily
    within one iteration (the dedup workload).  Publisher uplinks are
    tight enough that many publishers cannot carry their top rung, so the
    KMR loop runs one reduction per overloaded publisher — a genuinely
    multi-iteration solve (the dirty-set workload).
    """
    rng = random.Random(seed)
    ladder = ladder_with_levels(total_levels)
    pubs = [f"P{k}" for k in range(n_publishers)]
    subs = [f"S{k}" for k in range(n_subscribers)]
    bandwidth = {}
    for p in pubs:
        bandwidth[p] = Bandwidth(rng.choice([700, 850, 1100]), 500)
    for s in subs:
        downlink = rng.choice([8_000, 16_000, 24_000, 40_000])
        bandwidth[s] = Bandwidth(500, downlink)
    edges = [
        Subscription(s, p, Resolution.P720) for s in subs for p in pubs
    ]
    return Problem({p: ladder for p in pubs}, bandwidth, edges)


def breakout_meeting(
    n_rooms: int,
    room_size: int,
    total_levels: int,
    seed: int = 1,
) -> Problem:
    """Breakout rooms plus one global speaker: partial followership.

    Every client publishes and follows only its own room's publishers
    plus the shared speaker.  A reduction inside one room dirties only
    that room's subscribers, so the incremental solver's dirty set is a
    small fraction of the meeting — the workload where dirty-set Step 1
    dominates the other cache layers.
    """
    rng = random.Random(seed)
    ladder = ladder_with_levels(total_levels)
    speaker = "SPK"
    bandwidth = {speaker: Bandwidth(2500, 1000)}
    feasible = {speaker: ladder}
    edges: List[Subscription] = []
    for r in range(n_rooms):
        members = [f"R{r}_{k}" for k in range(room_size)]
        for m in members:
            feasible[m] = ladder
            bandwidth[m] = Bandwidth(
                uplink_kbps=rng.choice([700, 900, 1400]),
                downlink_kbps=rng.choice([2000, 4000, 8000]),
            )
        for a in members:
            edges.append(Subscription(a, speaker, Resolution.P720))
            for b in members:
                if a != b:
                    edges.append(Subscription(a, b, Resolution.P720))
    return Problem(feasible, bandwidth, edges)
