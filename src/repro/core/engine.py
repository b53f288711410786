"""The memoized solve engine behind the KMR hot path.

The KMR loop re-runs Step 1 (the per-subscriber MCKPs) on every
iteration, yet a Step-3 reduction removes only **one** resolution of
one publisher's feasible set — and inside a single iteration the
subscribers of a meeting (Fig. 6c gallery view, a webinar's viewers)
mostly share one *class structure* and differ only in downlink, so one
:class:`~repro.core.mckp.CapacityProfile` answers them all
(:func:`~repro.core.knapsack.knapsack_step`).  This module supplies
what carries that across steps without changing a single byte of any
:class:`~repro.core.solution.Solution`:

* **a process-wide bounded LRU cache** — :class:`MckpInstanceCache`,
  keyed by ``(granularity, classes)``: profiles survive across KMR
  iterations, solver instances, controller rounds and meetings, so a
  bandwidth delta that changes the ``Problem`` builds no table for a
  class structure seen before.  Profiles are shared without copying;
* **per-solve accounting** — :class:`EngineStats` counts what each layer
  saved; :class:`~repro.core.solver.SolveStats` carries it per solve.
  The process-wide cache keeps its own hit, miss and eviction counts,
  which the metrics registry reads at snapshot.

The *dirty-set* layer (re-solving only the subscribers that held the
stream a reduction deleted) lives in
:class:`~repro.core.solver.GsoSolver`; the set is the audience of the
deleted policy entry, which Step 2 already built.  So does the *replay*
layer above it: a caller that re-decides one meeting hands the solver
the :class:`~repro.core.solver.KmrRun` of its last solve, and each
iteration answers only the subscribers whose link report changed.  The
layers are always on (the replay wherever a caller passes a run); the
equivalence tests compare them against a from-scratch, per-subscriber
KMR loop kept under ``tests/`` (``docs/SOLVER.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional

from ..obs import names as obs_names
from .mckp import CapacityProfile


@dataclass
class EngineStats:
    """What the engine's layers saved during one solve.

    Attributes:
        step1_solved: subscribers answered by a knapsack step this solve
            (iteration 1 plus every dirty re-solve; under a replayed run
            only those of them whose ``Bandwidth`` changed).
        step1_skipped: Step-1 answers carried over instead of computed,
            from the previous iteration (subscribers that did not hold
            the deleted stream keep their requests) or from the previous
            decision (subscribers whose ``Bandwidth`` is the one the
            replayed run recorded keep its answers, iteration 1
            included).  Per iteration, solved + skipped is the number
            of subscribers.
        deduped: subscribers answered by an answer another subscriber
            of the same step already materialized.
        cache_hits: class structures whose profile came out of the
            process-wide LRU cache.
        cache_misses: class structures that built their DP table
            (exactly the tables the solve built).
    """

    step1_solved: int = 0
    step1_skipped: int = 0
    deduped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def dp_solves_avoided(self) -> int:
        """Step-1 DP runs the three layers saved, combined."""
        return self.step1_skipped + self.deduped + self.cache_hits


@dataclass
class InstanceCacheStats:
    """Hit/miss accounting of one :class:`MckpInstanceCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before the first lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0


class MckpInstanceCache:
    """Bounded LRU cache of capacity profiles, keyed by class structure.

    Where a meeting's last-solve memo (``MeetingRecord.memo``) needs the
    very same ``Problem`` object again, this cache hits whenever a
    ``(granularity, classes)`` *class structure* repeats, at any
    downlink — across KMR iterations, across controller rounds, and
    across entirely different meetings that share ladder shapes.  Values
    are :class:`~repro.core.mckp.CapacityProfile` objects, shared without
    copying.

    Args:
        capacity: maximum retained entries; least-recently-used entries
            are evicted beyond it.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, CapacityProfile]" = OrderedDict()
        self.stats = InstanceCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[CapacityProfile]:
        """Look up a class structure; the hit is the cached object itself."""
        cached = self._entries.get(key)
        if cached is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return cached

    def put(self, key: Hashable, profile: CapacityProfile) -> None:
        """Insert (or refresh) a profile under its class-structure key."""
        self._entries[key] = profile
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()

    def snapshot(self) -> dict:
        """JSON-friendly stats view (mirrors the cluster cache's shape)."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "hit_rate": self.stats.hit_rate,
        }

    def samples(self) -> Iterator[tuple]:
        """The registry's view (``MetricsRegistry.watch``; a solver
        registers the process-wide cache's when it is built)."""
        yield obs_names.MCKP_CACHE, {"result": "hit"}, self.stats.hits
        yield obs_names.MCKP_CACHE, {"result": "miss"}, self.stats.misses
        yield obs_names.MCKP_CACHE_EVICTIONS, {}, self.stats.evictions
        yield obs_names.MCKP_CACHE_ENTRIES, {}, len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MckpInstanceCache(entries={len(self._entries)}/{self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )


#: The process-wide cache every solver shares.
_DEFAULT_CACHE = MckpInstanceCache()


def default_mckp_cache() -> MckpInstanceCache:
    """The process-wide profile cache."""
    return _DEFAULT_CACHE
