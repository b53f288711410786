"""The sharded controller cluster: many meetings, one disciplined solve
service.

The paper's control plane orchestrates every meeting every 1–3 s across
~1M conferences/day (Sec. 6); *Tetris* (PAPERS.md) frames hosting that
workload on a bounded server fleet as a first-class packing problem.  This
module is the reproduction's control-plane host:

* **sharding** — meetings land on shard workers via a consistent-hash ring
  (:mod:`.hashring`); a shard death re-homes only its own meetings;
* **pacing** — the Fig. 12 envelope the ingress plane debounces and
  coalesces with (:mod:`.scheduler`);
* **caching** — solves are keyed by the canonical problem fingerprint and
  served from a bounded LRU when the structure repeats (:mod:`.cache`);
  every served solution is frozen once and then shared, never copied;
* **execution** — cache misses run in-process on one stateless
  :class:`~repro.core.solver.GsoSolver` (``cluster.pool``), each handed
  its meeting's :class:`~repro.core.solver.KmrRun` so a re-decided
  meeting replays its last solve;
* **admission** — a per-shard bound on solves in flight; the plane sheds
  what exceeds it to the Sec. 7 single-stream fallback
  (:mod:`.admission`).

Failure discipline is inherited from Sec. 7 end to end: a dead shard, a
shed request and a crashing solver all degrade the affected meeting to
:func:`~repro.control.failover.single_stream_fallback` — the service
continues, and the meeting re-converges to a full KMR solution on its next
decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..control.failover import single_stream_fallback
from ..core.constraints import Problem
from ..core.engine import default_mckp_cache
from ..core.mckp import kernel_stats
from ..core.solution import Solution
from ..core.solver import GsoSolver, KmrRun, SolverConfig
from ..obs import events as obs_events
from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..obs.spans import span
from ..placement.loadmodel import (
    DEFAULT_MEETING_COST,
    ShardLoadModel,
    meeting_cost,
)
from ..placement.policies import POLICIES, get_policy
from .admission import AdmissionController
from .cache import SolutionCache
from .hashring import ConsistentHashRing
from .scheduler import TRIGGER_REHOME, TRIGGER_SYNC

#: ``ServedSolution.source`` values.
SOURCE_SOLVE = "solve"
SOURCE_CACHE = "cache"
SOURCE_FALLBACK = "fallback"
SOURCE_SHED = "shed"


@dataclass
class ClusterConfig:
    """Sizing and policy knobs of the controller cluster."""

    #: Initial shard workers (named ``shard-0`` .. ``shard-N-1``).
    shards: int = 4
    #: Virtual ring points per shard.
    vnodes: int = 64
    #: Fig. 12 envelope the ingress plane paces every meeting with.
    min_interval_s: float = 1.0
    max_interval_s: float = 3.0
    #: Fingerprint cache; 0 disables caching entirely.
    cache_capacity: int = 4096
    #: Solves one shard may have in flight at once; the ingress plane
    #: sheds decisions beyond it to the fallback.
    max_solves_per_round: int = 64
    #: Placement policy homing new meetings: ``hash`` (the ring,
    #: baseline), ``best_fit`` (Tetris packing) or ``least_loaded``.
    placement: str = "hash"
    #: Per-shard assigned-cost budget consulted by ``best_fit`` packing
    #: and the hot-shard detector; 0 disables budget awareness.
    shard_cost_budget: float = 0.0
    #: Solver tuning shared by every shard (the fingerprint granularity).
    solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(granularity_kbps=25)
    )

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if not 0 < self.min_interval_s <= self.max_interval_s:
            raise ValueError("need 0 < min_interval <= max_interval")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.max_solves_per_round < 1:
            raise ValueError("max_solves_per_round must be >= 1")
        if self.placement not in POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"known: {', '.join(POLICIES)}"
            )
        if self.shard_cost_budget < 0:
            raise ValueError("shard_cost_budget must be >= 0")

    @property
    def cache_enabled(self) -> bool:
        """True when a solution cache is configured."""
        return self.cache_capacity > 0


@dataclass
class ServedSolution:
    """One configuration pushed to a meeting by the cluster."""

    meeting_id: str
    shard: str
    #: Read-only (``Solution.freeze``): a cache hit is the same object
    #: every other holder of that entry was served.
    solution: Solution
    #: Where the configuration came from: a fresh solve, a cache hit, a
    #: failure fallback, or an admission shed (also a fallback, tagged
    #: separately for accounting).
    source: str = SOURCE_SOLVE
    trigger: str = TRIGGER_SYNC
    #: Correlation id of the causal chain that produced this serve
    #: ("" when no event log was active at ingress).
    correlation_id: str = ""


@dataclass
class MeetingRecord:
    """Cluster-side state of one hosted meeting.

    The record owns the meeting's :class:`~repro.core.solver.KmrRun`: what
    its last real solve learned, handed to the next one.  It is this
    meeting's alone (webinars that share one topology value still differ
    in every budget), it is written only by a solve that succeeded (a
    cache hit, a shed, a fallback and a solve that raised leave it as it
    was), and it dies with the controller state it is part of: a
    migration or a shard death replaces it with an empty one (controller
    state does not travel, Sec. 7), and dropping the record frees it.
    """

    meeting_id: str
    shard: str
    last_problem: Optional[Problem] = None
    last_solution: Optional[Solution] = None
    run: KmrRun = field(default_factory=KmrRun)
    solves: int = 0
    cache_hits: int = 0
    fallbacks: int = 0
    rehomes: int = 0


class ShardWorker:
    """One controller shard: an admission budget and serve counters."""

    def __init__(self, name: str, config: ClusterConfig) -> None:
        self.name = name
        self.alive = True
        self.admission = AdmissionController(
            max_solves_per_round=config.max_solves_per_round
        )
        self.solves = 0
        self.fallbacks = 0


class ControllerCluster:
    """Hosts many meetings across shard workers behind one solve service.

    The ingress plane (``repro.ingress``) owns debouncing, coalescing and
    shedding and calls in exactly when a decision is due::

        cluster = ControllerCluster(ClusterConfig(shards=4))
        served = cluster.solve_request("meeting-1", problem, now_s=1.0)
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        names = [f"shard-{i}" for i in range(self.config.shards)]
        self._ring = ConsistentHashRing(names, vnodes=self.config.vnodes)
        self._shards: Dict[str, ShardWorker] = {
            name: ShardWorker(name, self.config) for name in names
        }
        self.cache: Optional[SolutionCache] = (
            SolutionCache(self.config.cache_capacity)
            if self.config.cache_enabled
            else None
        )
        self.pool = GsoSolver(self.config.solver)
        self._meetings: Dict[str, MeetingRecord] = {}
        self.placement_policy = get_policy(self.config.placement)
        self.load_model = ShardLoadModel(names)
        #: reason -> count of live migrations (deterministic mirror of
        #: the ``repro_placement_migrations_total`` counter).
        self.migrations: Dict[str, int] = {}
        self.shard_failovers = 0
        #: Fault-injection hook (repro.chaos): called with
        #: ``(meeting_id, problem)`` before any solve attempt (including
        #: cache lookups).  Raising degrades that meeting to the Sec. 7
        #: single-stream fallback, exactly like a crashing solver.
        self.solve_interceptor: Optional[
            Callable[[str, Problem], None]
        ] = None

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    @property
    def live_shards(self) -> List[str]:
        """Names of shards currently serving, sorted."""
        return sorted(n for n, s in self._shards.items() if s.alive)

    @property
    def meetings(self) -> List[str]:
        """Hosted meeting ids, sorted."""
        return sorted(self._meetings)

    def shard_of(self, meeting_id: str) -> str:
        """The live shard a meeting id hashes to."""
        return self._ring.node_for(meeting_id)

    def meeting(self, meeting_id: str) -> MeetingRecord:
        """The cluster-side record of a hosted meeting."""
        return self._meetings[meeting_id]

    def _place(self, meeting_id: str, cost: float) -> str:
        """Consult the placement policy for one meeting's home shard."""
        live = self.live_shards
        return self.placement_policy.choose(
            meeting_id,
            cost,
            live,
            self.load_model.loads(live),
            self.config.shard_cost_budget,
            self._ring,
        )

    def register(
        self, meeting_id: str, problem: Optional[Problem] = None
    ) -> str:
        """Home a meeting via the placement policy (idempotent); returns
        the shard.  A ``problem`` sharpens the load model's cost estimate
        (otherwise new meetings are assumed minimal two-party calls)."""
        record = self._meetings.get(meeting_id)
        if record is None:
            cost = (
                meeting_cost(problem)
                if problem is not None
                else DEFAULT_MEETING_COST
            )
            shard = self._place(meeting_id, cost)
            record = MeetingRecord(meeting_id, shard)
            self._meetings[meeting_id] = record
            self.load_model.assign(meeting_id, shard, cost)
            reg = get_registry()
            if reg.enabled:
                reg.counter(
                    obs_names.PLACEMENT_DECISIONS,
                    policy=self.placement_policy.name,
                ).inc()
            self._refresh_meeting_gauges()
        elif problem is not None:
            self.load_model.update_cost(meeting_id, meeting_cost(problem))
        return record.shard

    def _record_for(self, meeting_id: str, problem: Problem) -> MeetingRecord:
        """The record of the meeting a request is for, registered on first
        sight.  The load model's cost is refreshed only when the picture
        changed: the problem last served is the same object until then."""
        record = self._meetings.get(meeting_id)
        if record is None or problem is not record.last_problem:
            self.register(meeting_id, problem)
            record = self._meetings[meeting_id]
        return record

    def _refresh_meeting_gauges(self) -> None:
        reg = get_registry()
        if not reg.enabled:
            return
        per_shard = {name: 0 for name in self._shards}
        for record in self._meetings.values():
            per_shard[record.shard] = per_shard.get(record.shard, 0) + 1
        for name, count in per_shard.items():
            reg.gauge(obs_names.CLUSTER_MEETINGS, shard=name).set(count)
            reg.gauge(obs_names.PLACEMENT_SHARD_COST, shard=name).set(
                self.load_model.load(name)
            )

    # ------------------------------------------------------------------ #
    # The solve service
    # ------------------------------------------------------------------ #

    def _cache_key(self, problem: Problem) -> str:
        return problem.fingerprint(self.config.solver.granularity_kbps)

    def _fallback(self, record: MeetingRecord, problem: Problem) -> Solution:
        """Serve the Sec. 7 degenerate configuration and account for it."""
        solution = single_stream_fallback(problem).freeze()
        record.fallbacks += 1
        shard = self._shards.get(record.shard)
        if shard is not None:
            shard.fallbacks += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.CLUSTER_FALLBACKS).inc()
        return solution

    def _serve(
        self,
        record: MeetingRecord,
        problem: Problem,
        solution: Solution,
        source: str,
        trigger: str,
        now_s: float,
        correlation_id: str = "",
    ) -> ServedSolution:
        """Commit a configuration to a meeting's record."""
        record.last_problem = problem
        record.last_solution = solution
        if source == SOURCE_SOLVE:
            record.solves += 1
        elif source == SOURCE_CACHE:
            record.cache_hits += 1
        shard = self._shards.get(record.shard)
        if shard is not None:
            if source in (SOURCE_SOLVE, SOURCE_CACHE):
                shard.solves += 1
        log = obs_events.active_event_log()
        if log is not None:
            log.emit(
                obs_events.SOLVE_SERVED,
                t=now_s,
                meeting=record.meeting_id,
                cid=correlation_id,
                shard=record.shard,
                source=source,
                trigger=trigger,
                iterations=solution.iterations,
            )
        return ServedSolution(
            meeting_id=record.meeting_id,
            shard=record.shard,
            solution=solution,
            source=source,
            trigger=trigger,
            correlation_id=correlation_id,
        )

    def _solve_service(
        self, problem: Problem, run: KmrRun
    ) -> Tuple[Solution, str]:
        """Cache lookup, then solve; returns (solution, source).

        The solver's result is frozen here, once per solve; the cache
        stores that object and every later hit returns it.  ``run`` is
        the meeting's: the solve replays it and leaves its own in it.

        Raises whatever the solver raises — callers map failures to the
        fallback policy.
        """
        start = time.perf_counter()
        with span(obs_names.SPAN_CLUSTER_SOLVE):
            key = self._cache_key(problem) if self.cache is not None else None
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    self._observe_solve_seconds(start)
                    return cached, SOURCE_CACHE
            solution = self.pool.solve(problem, warm=run).freeze()
            if key is not None:
                self.cache.put(key, solution)
        self._observe_solve_seconds(start)
        return solution, SOURCE_SOLVE

    @staticmethod
    def _observe_solve_seconds(start: float) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.histogram(obs_names.CLUSTER_SOLVE_SECONDS).observe(
                time.perf_counter() - start
            )

    def solve_request(
        self,
        meeting_id: str,
        problem: Problem,
        now_s: float,
        trigger: str = "event",
        correlation_id: str = "",
    ) -> ServedSolution:
        """Serve one request now.

        Routes through the meeting's shard for accounting, honors the
        chaos interceptor and the fingerprint cache, and never raises:
        failures degrade to the Sec. 7 single-stream fallback.
        """
        record = self._record_for(meeting_id, problem)
        worker = self._shards.get(record.shard)
        if worker is not None:
            worker.admission.admit_one()
        reg = get_registry()
        if reg.enabled:
            reg.counter(
                obs_names.CLUSTER_SOLVE_REQUESTS, trigger=trigger
            ).inc()
        try:
            if self.solve_interceptor is not None:
                self.solve_interceptor(meeting_id, problem)
            solution, source = self._solve_service(problem, record.run)
        except Exception:
            solution = self._fallback(record, problem)
            source = SOURCE_FALLBACK
        return self._serve(
            record,
            problem,
            solution,
            source,
            trigger,
            now_s,
            correlation_id=correlation_id,
        )

    def over_budget(self, meeting_id: str, in_flight: int) -> bool:
        """Whether one more solve in flight would exceed the budget of
        the meeting's shard (the plane's admission check)."""
        worker = self._shards[self.register(meeting_id)]
        return worker.admission.over_budget(in_flight)

    def shed_request(
        self,
        meeting_id: str,
        problem: Problem,
        now_s: float,
        trigger: str = "event",
        correlation_id: str = "",
    ) -> ServedSolution:
        """Shed one request: serve the Sec. 7 fallback.

        The ingress backpressure ladder's last rung — the meeting gets a
        serviceable (degraded) configuration instead of queueing deeper.
        """
        record = self._record_for(meeting_id, problem)
        worker = self._shards.get(record.shard)
        if worker is not None:
            worker.admission.shed_one()
        solution = self._fallback(record, problem)
        return self._serve(
            record,
            problem,
            solution,
            SOURCE_SHED,
            trigger,
            now_s,
            correlation_id=correlation_id,
        )

    # ------------------------------------------------------------------ #
    # Failure and rebalance
    # ------------------------------------------------------------------ #

    def migrate_meeting(
        self,
        meeting_id: str,
        target: str,
        now_s: float,
        reason: str = "manual",
        degrade: bool = True,
    ) -> Optional[ServedSolution]:
        """Live-migrate one meeting to ``target`` (the shared primitive
        behind shard death, ring growth, hot-shard drains and scale-in).

        With ``degrade=True`` (the Sec. 7 handover discipline) the
        meeting is immediately served the single-stream fallback built
        from its last snapshot; with ``degrade=False`` the move is
        seamless.  Either way the meeting re-converges to a full KMR
        solution on its next decision on the target (its next report or
        the ingress plane's idle refresh), solved from nothing: the
        source shard's run of the meeting stays behind.

        Returns the degraded :class:`ServedSolution` (None when the
        meeting was already on ``target``, had no snapshot to serve, or
        ``degrade=False``).

        Raises:
            KeyError: for an unknown meeting.
            ValueError: for a dead or unknown target shard.
        """
        record = self._meetings[meeting_id]
        worker = self._shards.get(target)
        if worker is None or not worker.alive:
            raise ValueError(f"no live shard {target!r}")
        source = record.shard
        if source == target:
            return None
        record.shard = target
        record.rehomes += 1
        record.run = KmrRun()
        self.load_model.move(meeting_id, target)
        self.migrations[reason] = self.migrations.get(reason, 0) + 1
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.PLACEMENT_MIGRATIONS, reason=reason).inc()
        log = obs_events.active_event_log()
        # Capture the predecessor cid before minting the degradation's
        # own chain, so trace trees keep the re-homed meeting's lineage.
        parent = (
            log.last_cid(meeting_id)
            if degrade and log is not None
            else ""
        )
        cid = log.mint(meeting_id) if degrade and log is not None else ""
        if log is not None:
            if degrade:
                attrs = {"parent_cid": parent} if parent else {}
                log.emit(
                    obs_events.MEETING_REHOMED,
                    t=now_s,
                    meeting=meeting_id,
                    cid=cid,
                    shard=target,
                    reason=reason,
                    previous_shard=source,
                    **attrs,
                )
            else:
                log.emit(
                    obs_events.MEETING_REHOMED,
                    t=now_s,
                    meeting=meeting_id,
                    shard=target,
                    reason=reason,
                    previous_shard=source,
                )
        served: Optional[ServedSolution] = None
        problem = record.last_problem
        if degrade and problem is not None:
            served = self._serve(
                record,
                problem,
                self._fallback(record, problem),
                SOURCE_FALLBACK,
                TRIGGER_REHOME,
                now_s,
                correlation_id=cid,
            )
        self._refresh_meeting_gauges()
        return served

    def kill_shard(self, name: str, now_s: float) -> List[ServedSolution]:
        """Take one shard down and re-home its meetings (Sec. 7 handover).

        Every affected meeting immediately degrades to the single-stream
        fallback built from its last snapshot (the service continues) and
        is re-homed onto its new shard, where its next decision
        re-converges it to a full KMR solution.

        Returns the fallback configurations served during handover.

        Raises:
            ValueError: for an unknown or already-dead shard.
            RuntimeError: when no other live shard remains to absorb the
                meetings — the caller is taking the whole service down.
        """
        worker = self._shards.get(name)
        if worker is None or not worker.alive:
            raise ValueError(f"no live shard {name!r}")
        if len(self.live_shards) <= 1:
            raise RuntimeError("cannot kill the last live shard")
        worker.alive = False
        self._ring.remove_node(name)
        self.shard_failovers += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.CLUSTER_SHARD_FAILOVERS).inc()
        log = obs_events.active_event_log()
        if log is not None:
            log.emit(obs_events.SHARD_KILLED, t=now_s, shard=name)

        served: List[ServedSolution] = []
        rehomed = 0
        for meeting_id in self.meetings:
            record = self._meetings[meeting_id]
            if record.shard != name:
                continue
            # Sequential placement: each migration updates the load
            # model, so packing policies account for already-moved load.
            target = self._place(
                meeting_id, self.load_model.cost_of(meeting_id)
            )
            degraded = self.migrate_meeting(
                meeting_id, target, now_s, reason="shard_killed"
            )
            rehomed += 1
            if degraded is not None:
                served.append(degraded)
        if reg.enabled and rehomed:
            reg.counter(obs_names.CLUSTER_REHOMED).inc(rehomed)
        self.load_model.remove_shard(name)
        self._refresh_meeting_gauges()
        return served

    def add_shard(self, name: Optional[str] = None, now_s: float = 0.0) -> str:
        """Grow the fleet by one shard.

        Under the ``hash`` policy the new ring node captures its keys and
        those meetings re-home (seamless — no degraded serves); packing
        policies keep existing placements sticky and simply start offering
        the new shard to future placements and drains.
        """
        if name is None:
            k = len(self._shards)
            while f"shard-{k}" in self._shards:
                k += 1
            name = f"shard-{k}"
        if name in self._shards and self._shards[name].alive:
            raise ValueError(f"shard {name!r} already live")
        self._ring.add_node(name)
        self._shards[name] = ShardWorker(name, self.config)
        self.load_model.add_shard(name)
        log = obs_events.active_event_log()
        if log is not None:
            log.emit(obs_events.SHARD_ADDED, t=now_s, shard=name)
        rehomed = 0
        if self.placement_policy.uses_ring:
            for meeting_id in self.meetings:
                record = self._meetings[meeting_id]
                new_shard = self._ring.node_for(meeting_id)
                if new_shard == record.shard:
                    continue
                self.migrate_meeting(
                    meeting_id,
                    new_shard,
                    now_s,
                    reason="shard_added",
                    degrade=False,
                )
                rehomed += 1
        reg = get_registry()
        if reg.enabled and rehomed:
            reg.counter(obs_names.CLUSTER_REHOMED).inc(rehomed)
        self._refresh_meeting_gauges()
        return name

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of the cluster's counters."""
        shards = {}
        for name in sorted(self._shards):
            worker = self._shards[name]
            shards[name] = {
                "alive": worker.alive,
                "meetings": sum(
                    1 for r in self._meetings.values() if r.shard == name
                ),
                "solves": worker.solves,
                "fallbacks": worker.fallbacks,
                "shed": worker.admission.stats.shed,
            }
        cache = None
        if self.cache is not None:
            cache = {
                "entries": len(self.cache),
                "capacity": self.cache.capacity,
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "evictions": self.cache.stats.evictions,
                "hit_rate": self.cache.stats.hit_rate,
            }
        return {
            "meetings": len(self._meetings),
            "live_shards": self.live_shards,
            "shard_failovers": self.shard_failovers,
            "placement": {
                "policy": self.placement_policy.name,
                "budget": self.config.shard_cost_budget,
                "migrations": dict(sorted(self.migrations.items())),
                **self.load_model.snapshot(),
            },
            "shards": shards,
            "cache": cache,
            "mckp_cache": default_mckp_cache().snapshot(),
            "mckp_kernel": kernel_stats().snapshot(),
        }

    def __enter__(self) -> "ControllerCluster":
        return self

    def __exit__(self, *exc) -> None:
        """Nothing to release: every solve runs in-process."""
