"""Consistent-hash sharding of meeting ids onto controller shard workers.

The control plane hosts ~1M conferences/day (Sec. 6); no single controller
process holds them all.  Meetings are placed on shard workers with a
classic consistent-hash ring so that

* placement is a pure function of ``(meeting_id, live shard set)`` — every
  component (routers, schedulers, tests) computes the same home without
  coordination;
* losing one shard re-homes *only that shard's* meetings (~``1/N`` of the
  fleet); the rest keep their incumbent controller state untouched.

Hashes come from SHA-1, not Python's ``hash()`` — ``PYTHONHASHSEED``
randomizes string hashing per process, and shard placement must agree
across runs (seeded fleet reproductions) whatever the hash seed.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of a string key."""
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """A consistent-hash ring with virtual nodes.

    Args:
        nodes: initial node names.
        vnodes: virtual points per node.  More vnodes smooth the load split
            (the classic ``O(sqrt(log N / vnodes))`` imbalance bound); 64
            keeps the worst shard within a few percent of fair share for
            small clusters.

    Raises:
        ValueError: on duplicate node names or a non-positive vnode count.
    """

    def __init__(self, nodes: Sequence[str] = (), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self._vnodes = vnodes
        #: sorted ring points -> node name, kept as parallel arrays for bisect.
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: Dict[str, List[int]] = {}
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> List[str]:
        """Live node names, sorted."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        """Add a node (its vnode points) to the ring."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        points = [stable_hash(f"{node}#{k}") for k in range(self._vnodes)]
        self._nodes[node] = points
        for point in points:
            idx = bisect.bisect_left(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    def remove_node(self, node: str) -> None:
        """Remove a node; its keys fall to their ring successors."""
        points = self._nodes.pop(node, None)
        if points is None:
            raise ValueError(f"node {node!r} not on the ring")
        for point in points:
            # A point may collide between nodes; remove the one owned here.
            idx = bisect.bisect_left(self._points, point)
            while idx < len(self._points) and self._points[idx] == point:
                if self._owners[idx] == node:
                    del self._points[idx]
                    del self._owners[idx]
                    break
                idx += 1

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (first ring point clockwise of its hash).

        Raises:
            LookupError: when the ring is empty.
        """
        if not self._points:
            raise LookupError("hash ring is empty")
        idx = bisect.bisect_right(self._points, stable_hash(key))
        if idx == len(self._points):
            idx = 0  # wrap around the ring
        return self._owners[idx]

    def assignment(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """Map every node to the (sorted) keys it owns."""
        placed: Dict[str, List[str]] = {node: [] for node in self._nodes}
        for key in sorted(keys):
            placed[self.node_for(key)].append(key)
        return placed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConsistentHashRing(nodes={len(self._nodes)}, "
            f"vnodes={self._vnodes})"
        )


def moved_keys(
    before: ConsistentHashRing, after: ConsistentHashRing, keys: Sequence[str]
) -> List[Tuple[str, str, str]]:
    """Which keys change owner between two ring states.

    Returns:
        ``(key, old_node, new_node)`` triples, sorted by key — the re-home
        set a rebalance must migrate.
    """
    moves = []
    for key in sorted(keys):
        old = before.node_for(key)
        new = after.node_for(key)
        if old != new:
            moves.append((key, old, new))
    return moves
