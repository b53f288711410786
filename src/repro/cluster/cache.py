"""Fingerprint-keyed solution cache: the cluster's repeat-solve shortcut.

Fleet workloads have heavy structural repetition — the controller re-solves
every meeting each 1–3 s (Fig. 12) and most ticks see an unchanged global
picture, while across meetings the population model keeps producing the
same small-mesh shapes.  ``Problem.fingerprint()`` canonicalizes exactly
the inputs the solver can distinguish, so a fingerprint hit may legally
return the previously computed solution byte-for-byte.

The cache is a bounded LRU over *frozen* solutions
(:meth:`~repro.core.solution.Solution.freeze`): it stores the object it
is given and returns that same object on every hit, so a hit costs a
dict lookup and no copy.  One meeting cannot corrupt another meeting's
hit because nobody can write to what they share.

Nearly every hit re-decides the same ``Problem`` object (whose
fingerprint is kept on the instance), so it re-derives nothing; the
measured traffic per workload is in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..core.solution import Solution
from ..obs import names as obs_names
from ..obs.registry import get_registry


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`SolutionCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before the first lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0


class SolutionCache:
    """Bounded LRU cache of solved problems, keyed by fingerprint.

    Args:
        capacity: maximum retained entries; least-recently-used entries are
            evicted beyond it.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Solution]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Solution]:
        """Look up a fingerprint; a hit returns the stored (frozen) object."""
        reg = get_registry()
        cached = self._entries.get(key)
        if cached is None:
            self.stats.misses += 1
            if reg.enabled:
                reg.counter(obs_names.CLUSTER_CACHE, result="miss").inc()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if reg.enabled:
            reg.counter(obs_names.CLUSTER_CACHE, result="hit").inc()
        return cached

    def put(self, key: str, solution: Solution) -> None:
        """Insert (or refresh) a frozen solution under its fingerprint.

        Raises:
            ValueError: for a solution that is still mutable (every hit
                shares the stored object).
        """
        if not solution.is_frozen:
            raise ValueError("SolutionCache stores frozen solutions only")
        self._entries[key] = solution
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        self.stats.evictions += evicted
        self.stats.entries = len(self._entries)
        reg = get_registry()
        if reg.enabled:
            if evicted:
                reg.counter(obs_names.CLUSTER_CACHE_EVICTIONS).inc(evicted)
            reg.gauge(obs_names.CLUSTER_CACHE_ENTRIES).set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()
        self.stats.entries = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolutionCache(entries={len(self._entries)}/{self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
