"""The per-shard load model: deterministic cost accounting for placement.

*Tetris* (PAPERS.md) frames conference hosting as a packing problem:
meetings are items with very different sizes, shards are bins with a
budget, and the placer needs a *cost* for each item before it can pack.
This module supplies that cost and the book-keeping around it:

* :func:`meeting_cost` — a deterministic cost estimate for one meeting's
  KMR solve, derived only from the problem's structure (never from
  wall-clock measurements, so seeded placement runs stay byte-identical);
* :class:`ShardLoadModel` — per-shard assigned-cost totals maintained by
  the cluster as meetings register, resubmit, migrate and leave.

Cost model: one KMR iteration runs one MCKP per subscriber over its
followed publishers, so per-iteration work scales with the subscription
edge count, and the iteration bound scales with the publisher count
(Sec. 5).  ``cost = |subscriptions| + |publishers|`` captures both; for
the full-mesh meetings the fleet samples this is exactly ``n**2``.
Against measured solve time the fit is weak (``placement.cost_fit_r2``
in ``bench/`` reads 0.00-0.55), so the cost orders meetings for packing
and predicts no latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.constraints import Problem

#: Cost assumed for a meeting registered before its first problem arrives
#: (a minimal two-party call: 2 subscriptions + 2 publishers).
DEFAULT_MEETING_COST = 4.0


def meeting_cost(problem: Problem) -> float:
    """Deterministic solve-cost estimate for one meeting's problem.

    Derived purely from problem structure so identical seeded runs place
    identically; see the module docs for the model.
    """
    return float(
        max(1, len(problem.subscriptions) + len(problem.publishers))
    )


class ShardLoadModel:
    """Per-shard assigned-cost totals, updated as meetings move.

    The model is pure book-keeping: the cluster calls :meth:`assign` /
    :meth:`update_cost` / :meth:`move` / :meth:`release` as meetings
    register, resubmit with a new picture, migrate, or leave, and the
    placement policies read :meth:`loads` when choosing a shard.
    """

    def __init__(self, shards: Optional[List[str]] = None) -> None:
        self._loads: Dict[str, float] = {s: 0.0 for s in (shards or [])}
        #: meeting_id -> (shard, cost)
        self._meetings: Dict[str, Tuple[str, float]] = {}

    # -- shard lifecycle ------------------------------------------------- #

    def add_shard(self, shard: str) -> None:
        """Start tracking a (new or restarted) shard."""
        self._loads.setdefault(shard, 0.0)

    def remove_shard(self, shard: str) -> None:
        """Stop tracking an (empty) shard; meetings must have moved off."""
        if self._loads.get(shard, 0.0) == 0.0:
            self._loads.pop(shard, None)

    # -- meeting lifecycle ----------------------------------------------- #

    def assign(self, meeting_id: str, shard: str, cost: float) -> None:
        """Home a meeting (first placement, or idempotent re-assign)."""
        self.release(meeting_id)
        self._loads[shard] = self._loads.get(shard, 0.0) + cost
        self._meetings[meeting_id] = (shard, cost)

    def update_cost(self, meeting_id: str, cost: float) -> None:
        """Refresh a meeting's cost after its picture changed (churn)."""
        entry = self._meetings.get(meeting_id)
        if entry is None:
            return
        shard, old = entry
        self._loads[shard] = self._loads.get(shard, 0.0) - old + cost
        self._meetings[meeting_id] = (shard, cost)

    def move(self, meeting_id: str, new_shard: str) -> None:
        """Transfer a meeting's cost between shards (migration)."""
        entry = self._meetings.get(meeting_id)
        if entry is None:
            return
        shard, cost = entry
        self._loads[shard] = self._loads.get(shard, 0.0) - cost
        self._loads[new_shard] = self._loads.get(new_shard, 0.0) + cost
        self._meetings[meeting_id] = (new_shard, cost)

    def release(self, meeting_id: str) -> None:
        """Forget a meeting entirely."""
        entry = self._meetings.pop(meeting_id, None)
        if entry is not None:
            shard, cost = entry
            self._loads[shard] = self._loads.get(shard, 0.0) - cost

    # -- reads ----------------------------------------------------------- #

    def load(self, shard: str) -> float:
        """Total assigned cost on one shard (0.0 when untracked)."""
        return self._loads.get(shard, 0.0)

    def loads(self, shards: Optional[List[str]] = None) -> Dict[str, float]:
        """Assigned cost per shard (restricted to ``shards`` when given)."""
        if shards is None:
            return dict(self._loads)
        return {s: self._loads.get(s, 0.0) for s in shards}

    def cost_of(self, meeting_id: str) -> float:
        """One meeting's tracked cost (DEFAULT_MEETING_COST if unknown)."""
        entry = self._meetings.get(meeting_id)
        return DEFAULT_MEETING_COST if entry is None else entry[1]

    def shard_of(self, meeting_id: str) -> Optional[str]:
        """The shard a tracked meeting sits on (None if untracked)."""
        entry = self._meetings.get(meeting_id)
        return None if entry is None else entry[0]

    def meetings_on(self, shard: str) -> List[Tuple[str, float]]:
        """(meeting_id, cost) pairs homed on one shard, sorted by id."""
        return sorted(
            (mid, cost)
            for mid, (s, cost) in self._meetings.items()
            if s == shard
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly view (the cluster's ``stats()['placement']``)."""
        return {
            "loads": {s: round(v, 3) for s, v in sorted(self._loads.items())},
            "meetings": len(self._meetings),
            "total_cost": round(sum(self._loads.values()), 3),
        }
