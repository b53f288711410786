"""The sharded controller cluster: many meetings, one disciplined solve
service.

The paper's control plane orchestrates every meeting every 1–3 s across
~1M conferences/day (Sec. 6).  This module is the reproduction's
control-plane host:

* **sharding** — a consistent-hash ring (:mod:`.hashring`) is the one
  rule that homes a meeting; a shard death or a new shard moves only the
  meetings whose ring owner changed, through :meth:`migrate_meeting`;
* **pacing** — the Fig. 12 envelope the ingress plane debounces and
  coalesces with (:mod:`.scheduler`);
* **caching** — each meeting remembers its last successful solve: a
  re-decision handed the very same ``Problem`` object is served that
  frozen ``Solution`` again (source ``"cache"``), never copied;
* **execution** — everything else runs in-process on one stateless
  :class:`~repro.core.solver.GsoSolver` (``cluster.pool``), each handed
  its meeting's :class:`~repro.core.solver.KmrRun` so a re-decided
  meeting replays its last solve;
* **admission** — one bound on the ingress plane's solves in flight
  (running plus queued, across every shard); the plane sheds what
  exceeds it to the Sec. 7 single-stream fallback (:meth:`over_budget`).

Failure discipline is inherited from Sec. 7 end to end: a dead shard, a
shed request and a crashing solver all degrade the affected meeting to
:func:`~repro.control.failover.single_stream_fallback` — the service
continues, and the meeting re-converges to a full KMR solution on its next
decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..control.failover import single_stream_fallback
from ..core.constraints import Problem
from ..core.engine import default_mckp_cache
from ..core.mckp import kernel_stats
from ..core.solution import Solution
from ..core.solver import GsoSolver, KmrRun, SolverConfig
from ..obs import events as obs_events
from ..obs import names as obs_names
from ..obs.registry import get_registry
from .hashring import ConsistentHashRing
from .scheduler import TRIGGER_REHOME, TRIGGER_SYNC

#: ``ServedSolution.source`` values.
SOURCE_SOLVE = "solve"
SOURCE_CACHE = "cache"
SOURCE_FALLBACK = "fallback"
SOURCE_SHED = "shed"


@dataclass
class ClusterConfig:
    """Sizing knobs of the controller cluster."""

    #: Initial shard workers (named ``shard-0`` .. ``shard-N-1``).
    shards: int = 4
    #: Virtual ring points per shard.
    vnodes: int = 64
    #: Fig. 12 envelope the ingress plane paces every meeting with.
    min_interval_s: float = 1.0
    max_interval_s: float = 3.0
    #: Solves the ingress plane may have in flight at once (running plus
    #: queued, whatever shard homes the meeting); it sheds decisions
    #: beyond it to the fallback.
    max_solves_per_round: int = 64
    #: Solver tuning shared by every shard.
    solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(granularity_kbps=25)
    )

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if not 0 < self.min_interval_s <= self.max_interval_s:
            raise ValueError("need 0 < min_interval <= max_interval")
        if self.max_solves_per_round < 1:
            raise ValueError("max_solves_per_round must be >= 1")


@dataclass
class ServedSolution:
    """One configuration pushed to a meeting by the cluster."""

    meeting_id: str
    shard: str
    #: Read-only (``Solution.freeze``): a cache hit is the very object
    #: the meeting's last solve was served.
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

    The record owns two things its last successful solve left behind,
    both this meeting's alone (webinars that share one topology value
    still differ in every budget) and both written only by a solve that
    succeeded (a cache hit, a shed, a fallback and a solve that raised
    leave them as they were):

    * ``memo``, the ``(Problem, frozen Solution)`` pair of that solve.  A
      request for the very same ``Problem`` object is served its
      ``Solution`` again.  One pair per meeting, never more; it survives
      a migration or a shard death, since the answer to a picture does
      not depend on the shard that computed it.
    * ``run``, the :class:`~repro.core.solver.KmrRun` the next solve
      replays.  It dies with the controller state it is part of: a
      migration or a shard death replaces it with an empty one
      (controller state does not travel, Sec. 7).

    Dropping the record frees both.
    """

    meeting_id: str
    shard: str
    last_problem: Optional[Problem] = None
    last_solution: Optional[Solution] = None
    memo: Optional[Tuple[Problem, Solution]] = None
    run: KmrRun = field(default_factory=KmrRun)
    solves: int = 0
    cache_hits: int = 0
    fallbacks: int = 0
    rehomes: int = 0


class LastSolveMemo:
    """Reads and writes each meeting's ``MeetingRecord.memo``.

    Holds no solutions itself, only the cluster-wide hit and miss counts
    (a miss is a request that went on to a solve attempt).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def get(self, record: MeetingRecord, problem: Problem) -> Optional[Solution]:
        """The memoised solution when ``problem`` *is* the memoised picture."""
        memo = record.memo
        if memo is not None and memo[0] is problem:
            self.hits += 1
            return memo[1]
        self.misses += 1
        return None

    def put(self, record: MeetingRecord, problem: Problem, solution: Solution) -> None:
        record.memo = (problem, solution)


@dataclass
class ClusterCounters:
    """Cluster-wide counts.  The cluster keeps them, not a shard worker,
    so they survive a shard's death and restart (``add_shard`` on a dead
    shard's name replaces its worker); the metrics registry reads them
    at snapshot."""

    solve_requests: int = 0
    shed: int = 0
    fallbacks: int = 0
    shard_failovers: int = 0
    #: Shard name -> meetings homed on it (a dead shard keeps its 0).
    meetings: Dict[str, int] = field(default_factory=dict)

    def samples(self) -> Iterator[tuple]:
        """The registry's view (``MetricsRegistry.watch``)."""
        yield obs_names.CLUSTER_SOLVE_REQUESTS, {}, self.solve_requests
        yield obs_names.CLUSTER_SHED, {}, self.shed
        yield obs_names.CLUSTER_FALLBACKS, {}, self.fallbacks
        yield obs_names.CLUSTER_SHARD_FAILOVERS, {}, self.shard_failovers
        for shard, count in self.meetings.items():
            yield obs_names.CLUSTER_MEETINGS, {"shard": shard}, count


class ShardWorker:
    """One controller shard: its serve counters."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.alive = True
        self.solves = 0
        self.fallbacks = 0
        self.shed = 0


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
            name: ShardWorker(name) for name in names
        }
        self.cache = LastSolveMemo()
        self.pool = GsoSolver(self.config.solver)
        self._meetings: Dict[str, MeetingRecord] = {}
        self.counters = ClusterCounters(meetings=dict.fromkeys(names, 0))
        get_registry().watch(self.counters.samples)
        #: Fault-injection hook (repro.chaos): called with
        #: ``(meeting_id, problem)`` before any solve attempt (including
        #: memo lookups).  Raising degrades that meeting to the Sec. 7
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

    def register(self, meeting_id: str) -> str:
        """Home a meeting on its ring shard (idempotent); returns the
        shard."""
        return self._record(meeting_id).shard

    def _record(self, meeting_id: str) -> MeetingRecord:
        """The record of a meeting, registered on first sight."""
        record = self._meetings.get(meeting_id)
        if record is None:
            record = MeetingRecord(meeting_id, self._ring.node_for(meeting_id))
            self._meetings[meeting_id] = record
            self.counters.meetings[record.shard] += 1
        return record

    # ------------------------------------------------------------------ #
    # The solve service
    # ------------------------------------------------------------------ #

    def _fallback(self, record: MeetingRecord, problem: Problem) -> Solution:
        """Serve the Sec. 7 degenerate configuration and account for it."""
        solution = single_stream_fallback(problem).freeze()
        record.fallbacks += 1
        self.counters.fallbacks += 1
        shard = self._shards.get(record.shard)
        if shard is not None:
            shard.fallbacks += 1
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
        self, problem: Problem, record: MeetingRecord
    ) -> Tuple[Solution, str]:
        """Memo lookup, then solve; returns (solution, source).

        The solver's result is frozen here, once per solve, and becomes
        the meeting's memo; a later request for the same ``Problem``
        object returns it.  The solve replays the meeting's run and
        leaves its own in it.

        Raises whatever the solver raises — callers map failures to the
        fallback policy.
        """
        start = time.perf_counter()
        cached = self.cache.get(record, problem)
        if cached is not None:
            self._observe_solve_seconds(start)
            return cached, SOURCE_CACHE
        solution = self.pool.solve(problem, warm=record.run).freeze()
        self.cache.put(record, problem, solution)
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
        chaos interceptor and the meeting's memo, and never raises:
        failures degrade to the Sec. 7 single-stream fallback.
        """
        record = self._record(meeting_id)
        self.counters.solve_requests += 1
        try:
            if self.solve_interceptor is not None:
                self.solve_interceptor(meeting_id, problem)
            solution, source = self._solve_service(problem, record)
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
        """Whether one more solve would exceed the budget, given the
        plane's ``in_flight`` solves (the plane's admission check; the
        budget is the same whatever shard homes ``meeting_id``)."""
        return in_flight >= self.config.max_solves_per_round

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
        record = self._record(meeting_id)
        worker = self._shards.get(record.shard)
        if worker is not None:
            worker.shed += 1
        self.counters.shed += 1
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
        behind shard death and ring growth).

        With ``degrade=True`` (the Sec. 7 handover discipline) the
        meeting is immediately served the single-stream fallback built
        from its last snapshot; with ``degrade=False`` the move is
        seamless.  Either way the meeting re-converges to a full KMR
        solution on its next decision on the target (its next report or
        the ingress plane's idle refresh), solved from nothing: the
        source shard's run of the meeting stays behind.  The meeting's
        memo moves with it, so a decision over the unchanged picture is
        still a cache hit.

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
        self.counters.meetings[source] -= 1
        self.counters.meetings[target] += 1
        record.rehomes += 1
        record.run = KmrRun()
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.CLUSTER_REHOMED, reason=reason).inc()
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
        self.counters.shard_failovers += 1
        log = obs_events.active_event_log()
        if log is not None:
            log.emit(obs_events.SHARD_KILLED, t=now_s, shard=name)

        served: List[ServedSolution] = []
        for meeting_id in self.meetings:
            if self._meetings[meeting_id].shard != name:
                continue
            degraded = self.migrate_meeting(
                meeting_id,
                self._ring.node_for(meeting_id),
                now_s,
                reason="shard_killed",
            )
            if degraded is not None:
                served.append(degraded)
        return served

    def add_shard(self, name: Optional[str] = None, now_s: float = 0.0) -> str:
        """Grow the fleet by one shard.

        The new ring node captures its keys and exactly those meetings
        re-home, seamlessly (no degraded serves).
        """
        if name is None:
            k = len(self._shards)
            while f"shard-{k}" in self._shards:
                k += 1
            name = f"shard-{k}"
        if name in self._shards and self._shards[name].alive:
            raise ValueError(f"shard {name!r} already live")
        self._ring.add_node(name)
        self._shards[name] = ShardWorker(name)
        self.counters.meetings.setdefault(name, 0)
        log = obs_events.active_event_log()
        if log is not None:
            log.emit(obs_events.SHARD_ADDED, t=now_s, shard=name)
        # A no-op for every meeting the ring left where it was.
        for meeting_id in self.meetings:
            self.migrate_meeting(
                meeting_id,
                self._ring.node_for(meeting_id),
                now_s,
                reason="shard_added",
                degrade=False,
            )
        return name

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of the cluster's counters."""
        counters = self.counters
        shards = {}
        for name in sorted(self._shards):
            worker = self._shards[name]
            shards[name] = {
                "alive": worker.alive,
                "meetings": counters.meetings[name],
                "solves": worker.solves,
                "fallbacks": worker.fallbacks,
                "shed": worker.shed,
            }
        return {
            "meetings": len(self._meetings),
            "live_shards": self.live_shards,
            "solve_requests": counters.solve_requests,
            "shed": counters.shed,
            "fallbacks": counters.fallbacks,
            "shard_failovers": counters.shard_failovers,
            "shards": shards,
            "cache": {"hits": self.cache.hits, "misses": self.cache.misses},
            "mckp_cache": default_mckp_cache().snapshot(),
            "mckp_kernel": kernel_stats().snapshot(),
        }

    def __enter__(self) -> "ControllerCluster":
        return self

    def __exit__(self, *exc) -> None:
        """Nothing to release: every solve runs in-process."""
