"""The chaos runner: one seeded, fault-injected run of the control loop.

``ChaosRunner`` torments the same loop real traffic uses — an
:class:`~repro.ingress.plane.IngressPlane` mounted on a real
:class:`~repro.cluster.ControllerCluster` — on one virtual clock:

* the seeded stream of :func:`~repro.ingress.events.generate_stream`
  (every meeting's jittered SEMB reports plus its link, subscription
  and churn mutations) goes through the plane's mailboxes, decision
  windows and executor;
* the runner is the network between the clients and the plane: it
  schedules each stream event's arrival and offers it to the plane then;
* each fault enters where it would in production (``docs/RESILIENCE.md``):
  bandwidth and membership faults as stream events offered at the fault
  time, lost and delayed reports at that arrival (a :class:`ReportWindow`
  drops or holds them before the plane sees them), lost TMMBR pushes,
  stale snapshots and solver crashes through :class:`ChaosBackend` and
  ``solve_interceptor``, shard death and growth as simulator actions;
* the :class:`~repro.chaos.world.ChaosWorld` supplies the meeting
  population the events mutate;
* the :class:`~repro.chaos.invariants.InvariantChecker` judges every
  configuration the cluster delivers.

The output is a canonical :class:`~repro.chaos.report.RunReport` whose
digest is byte-identical across runs of the same seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..cluster import ClusterConfig, ControllerCluster
from ..cluster.cluster import (
    SOURCE_FALLBACK,
    SOURCE_SHED,
    ServedSolution,
)
from ..core.constraints import Problem
from ..core.engine import default_mckp_cache
from ..core.solution import Solution, solution_digest
from ..core.solver import SolverConfig
from ..ingress.aio import SimRuntime
from ..ingress.events import (
    KIND_SEMB,
    LinkEstimate,
    PublisherJoin,
    PublisherLeave,
    StreamConfig,
    StreamEvent,
    generate_stream,
)
from ..ingress.plane import BackendDecision, ClusterBackend, IngressPlane
from ..net.simulator import PeriodicTask
from ..obs import events as obs_events
from ..obs import names as obs_names
from ..obs.events import EventLog
from ..obs.registry import get_registry
from ..obs.slo import SloVerdict, evaluate_slos
from ..obs.spans import span
from . import faults as F
from .faults import Fault, FaultSchedule
from .invariants import InvariantChecker, kmr_iteration_bound
from .report import RunReport
from .world import ChaosWorld


class InjectedSolverFault(RuntimeError):
    """Raised by the solve interceptor for a poisoned meeting."""


#: ``fault`` values of the ``fault_injected`` event a report window
#: logs for each report it drops or holds.
DROP_SEMB = "drop_semb"
DELAY_SEMB = "delay_semb"


class ReportWindow(NamedTuple):
    """One feedback fault on the wire: ``meeting``'s SEMB reports stamped
    in ``[start_s, end_s)`` are dropped (``delay_s == 0``) or held
    ``delay_s`` seconds."""

    meeting: str
    start_s: float
    end_s: float
    delay_s: float = 0.0


def report_windows(
    schedule: FaultSchedule, report_interval_s: float, default_meeting: str
) -> List[ReportWindow]:
    """The feedback-path faults of a timeline, as report windows.

    ``drop_report`` drops ``factor`` report intervals of reports,
    ``delay_report`` holds the next interval's reports ``factor``
    intervals; every other kind enters the loop elsewhere.  A fault
    without a target hits ``default_meeting``.
    """
    out: List[ReportWindow] = []
    for fault in schedule.faults:
        factor = max(1.0, fault.factor or 1.0)
        meeting = fault.target or default_meeting
        if fault.kind == F.DROP_REPORT:
            out.append(ReportWindow(
                meeting, fault.at_s, fault.at_s + factor * report_interval_s
            ))
        elif fault.kind == F.DELAY_REPORT:
            out.append(ReportWindow(
                meeting, fault.at_s, fault.at_s + report_interval_s,
                factor * report_interval_s,
            ))
    return out


@dataclass
class FeedbackStats:
    """The reports the report windows dropped (per meeting) and held; the
    metrics registry reads it at snapshot."""

    dropped_by_meeting: Dict[str, int] = field(default_factory=dict)
    delayed: int = 0

    @property
    def dropped(self) -> int:
        return sum(self.dropped_by_meeting.values())

    def samples(self) -> Iterator[tuple]:
        """The registry's view (``MetricsRegistry.watch``)."""
        yield obs_names.INGRESS_DROPPED_EVENTS, {}, self.dropped
        yield obs_names.INGRESS_DELAYED_EVENTS, {}, self.delayed


def _assignment_changes(
    previous: Optional[Solution], current: Solution
) -> List[str]:
    """Sorted human-readable diff of (subscriber <- publisher) streams.

    ``previous is None`` (the bootstrap single-stream default) diffs as
    all-added, so the first delivered configuration is itself a
    subscription change — matching what clients experience.
    """

    def stream_map(solution: Solution) -> Dict[tuple, tuple]:
        out: Dict[tuple, tuple] = {}
        for sub in solution.assignments:
            for pub, stream in solution.assignments[sub].items():
                out[(sub, pub)] = (stream.resolution.value, stream.bitrate_kbps)
        return out

    before = {} if previous is None else stream_map(previous)
    after = stream_map(current)
    changes: List[str] = []
    for key in sorted(set(before) | set(after)):
        sub, pub = key
        old = before.get(key)
        new = after.get(key)
        if old == new:
            continue
        if old is None:
            changes.append(f"{sub}<-{pub}:+{new[0]}")
        elif new is None:
            changes.append(f"{sub}<-{pub}:-{old[0]}")
        else:
            changes.append(f"{sub}<-{pub}:{old[0]}->{new[0]}")
    return changes


@dataclass
class ChaosConfig:
    """Sizing knobs of one chaos run."""

    seed: int = 1
    meetings: int = 4
    duration_s: float = 10.0
    #: SEMB/global-picture report cadence per meeting (also the cluster's
    #: Fig. 12 min interval and the housekeeping cadence).
    report_interval_s: float = 1.0
    shards: int = 2
    max_solves_per_round: int = 64
    mean_size: float = 4.0
    #: Expected world mutations (link, subscription, churn events) per
    #: meeting in the generated stream, on top of the faults.
    mutations_per_meeting: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "duration_s", "report_interval_s", "mean_size",
            "mutations_per_meeting",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.report_interval_s <= 0:
            raise ValueError("report_interval_s must be positive")
        if self.meetings < 1:
            raise ValueError("need at least one meeting")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.max_solves_per_round < 1:
            raise ValueError("max_solves_per_round must be >= 1")
        if self.mutations_per_meeting < 0:
            raise ValueError("mutations_per_meeting must be >= 0")

    def to_dict(self) -> dict:
        """JSON-friendly encoding (embedded in run reports)."""
        return asdict(self)


class ChaosBackend(ClusterBackend):
    """``ClusterBackend`` plus the faults that live behind the plane and
    the per-decision judging (the way ``bench``'s backend adds the wire):
    every decision and shed commits through :meth:`ChaosRunner.deliver`."""

    def __init__(self, cluster, world, runner: "ChaosRunner") -> None:
        super().__init__(cluster, world)
        self.runner = runner
        #: meeting -> the stale snapshot its next decision is served.
        self.stale: Dict[str, Problem] = {}

    def payload(self, meeting: str) -> Problem:
        stale = self.stale.pop(meeting, None)
        return stale if stale is not None else super().payload(meeting)

    def committed(self, served, payload):
        return self.runner.deliver(served, payload)


class ChaosRunner:
    """Runs one fault schedule against a fresh cluster; see module docs."""

    def __init__(
        self,
        config: ChaosConfig,
        schedule: Optional[FaultSchedule] = None,
        scenario: str = "custom",
    ) -> None:
        self.config = config
        self.schedule = schedule or FaultSchedule()
        self.scenario = scenario
        #: The full SLO verdict objects from the last run (the report only
        #: keeps their dict encodings, split deterministic/informational).
        self.slo_verdicts: List[SloVerdict] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def run(self) -> RunReport:
        """Execute the run and return its canonical report."""
        cfg = self.config
        # Seeded runs must be hermetic: drop the process-wide MCKP
        # instance cache so a double run replays the identical hit/miss
        # pattern (the determinism invariant compares metric samples too).
        default_mckp_cache().clear()
        self.world = ChaosWorld(
            seed=cfg.seed, meetings=cfg.meetings, mean_size=cfg.mean_size
        )
        self.cluster = ControllerCluster(
            ClusterConfig(
                shards=cfg.shards,
                min_interval_s=cfg.report_interval_s,
                max_interval_s=3.0 * cfg.report_interval_s,
                max_solves_per_round=cfg.max_solves_per_round,
                solver=SolverConfig(granularity_kbps=25),
            )
        )
        self.backend = ChaosBackend(self.cluster, self.world, self)
        self.plane = IngressPlane(SimRuntime(), self.backend)
        self.sim = self.plane.runtime.sim
        self.checker = InvariantChecker()
        self.feedback = FeedbackStats()
        get_registry().watch(self.feedback.samples)
        self.report = RunReport(
            scenario=self.scenario,
            seed=cfg.seed,
            duration_s=cfg.duration_s,
            config=self.config.to_dict(),
        )
        # Fault state the runner maintains between events.
        self._poisoned: Set[str] = set()
        self._lose_next_tmmbr: Set[str] = set()
        self._applied: Dict[str, dict] = {}
        self._applied_solution: Dict[str, Optional[Solution]] = {}
        self._ever_served: Set[str] = set()
        self._fallback_since: Dict[str, float] = {}
        self._meeting_counters: Dict[str, Dict[str, int]] = {}
        self._max_iteration_ratio = 0.0
        #: The run's structured event log, one per run (kept on the
        #: runner so CLIs can render timelines afterwards).
        self.events = EventLog()
        self.slo_verdicts = []

        self.cluster.solve_interceptor = self._intercept
        with span(obs_names.SPAN_CHAOS_RUN), \
                obs_events.record_events(self.events):
            faults = self.schedule.until(cfg.duration_s)
            self._bootstrap(faults)
            self._windows = report_windows(
                faults, cfg.report_interval_s, self.world.meeting_ids[0]
            )
            # Arrivals are scheduled in stream order, so equal-time
            # events reach the plane in stream order.
            for event in generate_stream(
                cfg.seed,
                self.world,
                StreamConfig(
                    duration_s=cfg.duration_s,
                    report_interval_s=cfg.report_interval_s,
                    mutations_per_meeting=cfg.mutations_per_meeting,
                ),
            ):
                self.sim.schedule_at(
                    event.at_s, lambda e=event: self._arrive(e)
                )
            self.plane.run_stream((), duration_s=cfg.duration_s)
            self._finalize()
        return self.report

    def _bootstrap(self, faults: FaultSchedule) -> None:
        """Register meetings, start the housekeeping clock, arm faults."""
        cfg = self.config
        for meeting_id in self.world.meeting_ids:
            self.cluster.register(meeting_id)
            # Clients boot in a safe single-stream default until the
            # first TMMBR push arrives (Sec. 7's floor configuration).
            self._applied[meeting_id] = {"source": "bootstrap", "digest": ""}
            self._applied_solution[meeting_id] = None
            self._meeting_counters[meeting_id] = {
                "tmmbr_lost": 0,
                "fallback_recoveries": 0,
            }
        # Faults are armed before the stream is scheduled, so a fault
        # precedes a report due at the same instant.
        for fault in faults:
            self.sim.schedule_at(
                fault.at_s, lambda f=fault: self._apply_fault(f)
            )
        PeriodicTask(
            self.sim,
            cfg.report_interval_s,
            self._housekeep,
            start_offset=cfg.report_interval_s,
        )

    def _finalize(self) -> None:
        """Closing availability check + per-meeting summaries."""
        self._check_availability()
        dropped = self.feedback.dropped_by_meeting
        for meeting_id in self.world.meeting_ids:
            record = self.cluster.meeting(meeting_id)
            state = self.world.meeting(meeting_id)
            applied = self._applied[meeting_id]
            self.report.meetings[meeting_id] = {
                "size": state.size,
                "picture_version": state.version,
                "solves": record.solves,
                "cache_hits": record.cache_hits,
                "fallbacks": record.fallbacks,
                "rehomes": record.rehomes,
                "applied_source": applied["source"],
                "applied_digest": applied["digest"],
                "reports_dropped": dropped.get(meeting_id, 0),
                **self._meeting_counters[meeting_id],
            }
        self.report.checks = dict(self.checker.checks)
        self.report.violations = [
            v.to_dict() for v in self.checker.violations
        ]
        reg = get_registry()
        if reg.enabled:
            verdict = "pass" if self.report.ok else "fail"
            reg.counter(obs_names.CHAOS_RUNS, verdict=verdict).inc()
        self._evaluate_slos()
        self.report.events_total = self.events.emitted
        self.report.event_digest = self.events.digest()

    def stage_latencies(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per-stage ``(start_s, duration_s)`` samples of every plane
        decision's attributed stages (``Decision.stages()``), keyed by
        stage in sorted order, however much of the run the event log
        still holds: what the stage budgets judge and ``repro trace
        profile`` tabulates."""
        out: Dict[str, List[Tuple[float, float]]] = {}
        for decision in self.plane.decisions:
            for stage_span in decision.stages():
                out.setdefault(stage_span.stage, []).append(
                    (stage_span.start_s, stage_span.duration_s)
                )
        return dict(sorted(out.items()))

    def _evaluate_slos(self) -> None:
        """Attach SLO verdicts: deterministic ones enter the digested
        report; wall-clock ones (solve latency) stay informational."""
        self.slo_verdicts = evaluate_slos(
            serves=self.report.serves,
            duration_s=self.config.duration_s,
            iteration_ratio_max=self._max_iteration_ratio,
            stage_latencies=self.stage_latencies(),
            registry=get_registry(),
        )
        for verdict in self.slo_verdicts:
            row = verdict.to_dict()
            if verdict.deterministic:
                self.report.slo.append(row)
            else:
                self.report.slo_informational.append(row)

    # ------------------------------------------------------------------ #
    # Event callbacks
    # ------------------------------------------------------------------ #

    def _intercept(self, meeting_id: str, problem) -> None:
        """The cluster-side injection hook: poisoned meetings crash."""
        if meeting_id in self._poisoned:
            raise InjectedSolverFault(
                f"injected solver fault for {meeting_id}"
            )

    def _arrive(self, event: StreamEvent) -> None:
        """One stream event reaches the plane, unless the report windows
        covering it drop it or hold it for their summed delay (a drop
        beats every hold)."""
        holds = [
            window.delay_s
            for window in self._windows
            if event.kind == KIND_SEMB
            and window.meeting == event.meeting
            and window.start_s <= event.at_s < window.end_s
        ]
        if not holds:
            self.plane.offer(event)
            return
        if 0.0 in holds:
            drops = self.feedback.dropped_by_meeting
            drops[event.meeting] = drops.get(event.meeting, 0) + 1
            attrs = {"fault": DROP_SEMB}
        else:
            delay = sum(holds)
            self.feedback.delayed += 1
            attrs = {"fault": DELAY_SEMB, "delay_s": round(delay, 6)}
            self.sim.schedule(delay, lambda: self.plane.offer(event))
        self.events.emit(
            obs_events.FAULT_INJECTED,
            t=self.sim.now,
            meeting=event.meeting,
            **attrs,
            seq=event.seq,
        )

    def _housekeep(self) -> None:
        """Once per report interval: check that every served meeting
        still holds a configuration."""
        self._check_availability()

    def _deliver_handover(self, handover: List[ServedSolution]) -> None:
        """Deliver the degraded fallbacks a migration served mid-move.
        They bypass the plane, so their TMMBR event is emitted here."""
        for served in handover:
            problem = self.cluster.meeting(served.meeting_id).last_problem
            result = self.deliver(served, problem)
            self.events.emit(
                obs_events.TMMBR_PUSH
                if result.delivered
                else obs_events.TMMBR_LOST,
                t=self.sim.now,
                meeting=served.meeting_id,
                cid=served.correlation_id,
                shard=served.shard,
                source=served.source,
            )

    def deliver(
        self, served: ServedSolution, problem: Problem
    ) -> BackendDecision:
        """Judge and apply one configuration the cluster served."""
        now = self.sim.now
        meeting_id = served.meeting_id
        self.checker.check_solution(
            meeting_id, problem, served.solution, now
        )
        self._max_iteration_ratio = max(
            self._max_iteration_ratio,
            served.solution.iterations / kmr_iteration_bound(problem),
        )
        digest = solution_digest(served.solution)
        delivered = meeting_id not in self._lose_next_tmmbr
        if not delivered:
            # The TMMBR push is lost in flight: the configuration was
            # computed but the clients keep their previous one.  The
            # meeting's next decision heals it.
            self._lose_next_tmmbr.discard(meeting_id)
            self._meeting_counters[meeting_id]["tmmbr_lost"] += 1
        self.report.serves.append(
            {
                "t": now,
                "meeting": meeting_id,
                "cid": served.correlation_id,
                "source": served.source,
                "trigger": served.trigger,
                "solution": digest,
                "delivered": delivered,
            }
        )
        self._ever_served.add(meeting_id)
        if delivered:
            changes = _assignment_changes(
                self._applied_solution.get(meeting_id), served.solution
            )
            if changes:
                self.events.emit(
                    obs_events.SUBSCRIPTION_CHANGE,
                    t=now,
                    meeting=meeting_id,
                    cid=served.correlation_id,
                    shard=served.shard,
                    changed=len(changes),
                    changes=",".join(changes[:3]),
                )
            self._applied[meeting_id] = {
                "source": served.source,
                "digest": digest,
            }
            self._applied_solution[meeting_id] = served.solution
        self._track_recovery(meeting_id, served.source)
        return BackendDecision(
            source=served.source,
            digest=digest,
            solution=served.solution,
            delivered=delivered,
        )

    def _track_recovery(self, meeting_id: str, source: str) -> None:
        """Measure how long meetings stay degraded on the fallback."""
        now = self.sim.now
        if source in (SOURCE_FALLBACK, SOURCE_SHED):
            self._fallback_since.setdefault(meeting_id, now)
            return
        since = self._fallback_since.pop(meeting_id, None)
        if since is None:
            return
        self._meeting_counters[meeting_id]["fallback_recoveries"] += 1
        reg = get_registry()
        if reg.enabled:
            reg.histogram(obs_names.CHAOS_RECOVERY_SECONDS).observe(
                now - since
            )

    def _check_availability(self) -> None:
        """Fallback-availability invariant over every served meeting."""
        holds = {
            meeting_id: (
                self.cluster.meeting(meeting_id).last_solution is not None
                and self._applied.get(meeting_id) is not None
            )
            for meeting_id in self._ever_served
        }
        self.checker.check_availability(
            sorted(self._ever_served), holds, self.sim.now
        )

    # ------------------------------------------------------------------ #
    # Fault application
    # ------------------------------------------------------------------ #

    def _apply_fault(self, fault: Fault) -> None:
        """Inject one fault where it enters the loop; records the
        outcome in the report."""
        kind = fault.kind
        # Emitted before dispatch so the fault precedes its effects
        # (handover fallbacks, re-homes) in the causal timeline.
        self.events.emit(
            obs_events.FAULT_INJECTED,
            t=self.sim.now,
            meeting=(
                fault.target
                if fault.target in self.world.meeting_ids
                else ""
            ),
            fault=kind,
            target=fault.target,
        )
        if kind in F.SHARD_KINDS:
            detail = self._apply_shard_fault(fault)
        else:
            meeting_id = fault.target or self.world.meeting_ids[0]
            detail = (
                self._apply_meeting_fault(fault, meeting_id)
                if meeting_id in self.world.meeting_ids
                else None
            )
        if detail is not None:
            reg = get_registry()
            if reg.enabled:
                reg.counter(obs_names.CHAOS_FAULTS, kind=kind).inc()
        self.report.faults.append(
            {
                **fault.to_dict(),
                "outcome": "skipped" if detail is None else "applied",
                **(detail or {}),
            }
        )

    def _apply_shard_fault(self, fault: Fault) -> Optional[dict]:
        """Shard death, restart and growth: calls on the cluster at the
        fault's time.  None = skipped."""
        kind = fault.kind
        now = self.sim.now
        live = self.cluster.live_shards
        if kind == F.KILL_SHARD:
            target = fault.target or live[0]
            if len(live) <= 1 or target not in live:
                return None
            handover = self.cluster.kill_shard(target, now)
            self._deliver_handover(handover)
            return {"shard": target, "rehomed": len(handover)}
        if kind == F.RESTART_SHARD:
            dead = sorted(set(self.cluster.stats()["shards"]) - set(live))
            target = fault.target or (dead[0] if dead else "")
            if not target or target in live:
                return None
            self.cluster.add_shard(target, now)
            return {"shard": target}
        # ADD_SHARD
        if fault.target in live:
            return None
        return {"shard": self.cluster.add_shard(fault.target or None, now)}

    def _apply_meeting_fault(
        self, fault: Fault, meeting_id: str
    ) -> Optional[dict]:
        """Faults aimed at one meeting.  None = skipped."""
        kind = fault.kind
        now = self.sim.now
        clients = self.world.meeting(meeting_id).clients
        if kind in (
            F.DOWNLINK_COLLAPSE, F.UPLINK_COLLAPSE, F.BANDWIDTH_RECOVER
        ):
            client = fault.client if fault.client in clients else min(clients)
            up, down = clients[client].up_scale, clients[client].down_scale
            if kind == F.DOWNLINK_COLLAPSE:
                down = fault.factor
            elif kind == F.UPLINK_COLLAPSE:
                up = fault.factor
            else:
                up = down = 1.0
            accepted = self.plane.offer(
                LinkEstimate(
                    at_s=now,
                    meeting=meeting_id,
                    client=client,
                    up_scale=up,
                    down_scale=down,
                )
            )
            return {"meeting": meeting_id, "client": client} if accepted else None
        if kind in (F.PUBLISHER_JOIN, F.PUBLISHER_LEAVE):
            before = set(clients)
            self.plane.offer(
                PublisherJoin(at_s=now, meeting=meeting_id)
                if kind == F.PUBLISHER_JOIN
                else PublisherLeave(
                    at_s=now, meeting=meeting_id, client=fault.client
                )
            )
            churned = sorted(before ^ set(clients))
            if not churned:
                return None  # the meeting is already down to two clients
            return {"meeting": meeting_id, "client": churned[0]}
        if kind == F.STALE_SNAPSHOT:
            version, problem = self.world.stale_problem(
                meeting_id, int(fault.factor)
            )
            self.backend.stale[meeting_id] = problem
            return {"meeting": meeting_id, "stale_version": version}
        if kind == F.LOSE_TMMBR:
            self._lose_next_tmmbr.add(meeting_id)
        elif kind == F.SOLVER_FAULT:
            self._poisoned.add(meeting_id)
        elif kind == F.CLEAR_SOLVER_FAULT:
            if meeting_id not in self._poisoned:
                return None
            self._poisoned.discard(meeting_id)
        # DROP_REPORT / DELAY_REPORT windows were armed up front
        # (``report_windows``); the fault time only marks the timeline.
        return {"meeting": meeting_id}
