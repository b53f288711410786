"""The ingress runner: seeded end-to-end runs of the event-driven plane.

The entry point behind ``repro ingress run`` and the ingress test suite:
build a seeded :class:`~repro.chaos.world.ChaosWorld`, generate its
event stream, drive it through an :class:`~repro.ingress.plane.IngressPlane`
mounted on a real :class:`~repro.cluster.cluster.ControllerCluster`, check
every committed configuration against the chaos invariants, and fold the
whole run into a canonical :class:`~repro.ingress.report.IngressReport`.

Byte-determinism contract: two calls with the same config (and fault
set) produce identical report digests *and* identical event-log digests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from ..cluster import ClusterConfig, ControllerCluster
from ..core.engine import default_mckp_cache
from ..core.solver import SolverConfig
from ..obs import events as obs_events
from ..obs import names as obs_names
from ..obs.events import EventLog
from ..obs.spans import span
from ..obs.tracing import assemble_trees
from ..chaos.invariants import InvariantChecker
from ..chaos.world import ChaosWorld
from .aio import SimRuntime
from .events import StreamConfig, generate_stream
from .faults import StreamFault, StreamFaultInjector
from .plane import ClusterBackend, IngressConfig, IngressPlane
from .report import IngressReport


@dataclass
class IngressRunConfig:
    """Sizing of one seeded ingress run."""

    seed: int = 0
    meetings: int = 4
    mean_size: float = 5.0
    duration_s: float = 10.0
    report_interval_s: float = 1.0
    mutations_per_meeting: float = 2.0
    shards: int = 2
    mailbox_capacity: int = 8
    solve_slots: int = 4
    max_solves_per_round: int = 64

    def to_dict(self) -> dict:
        return dict(sorted(asdict(self).items()))


def run_ingress(
    config: Optional[IngressRunConfig] = None,
    faults: Sequence[StreamFault] = (),
    events_out: Optional[EventLog] = None,
) -> IngressReport:
    """Execute one seeded ingress run and return its canonical report.

    Args:
        config: run sizing (defaults throughout).
        faults: stream fault windows (delayed / dropped SEMB).
        events_out: optional pre-built event log to record into (kept by
            callers that render timelines afterwards).
    """
    cfg = config or IngressRunConfig()
    # Hermetic seeded runs: drop the process-wide MCKP instance cache so
    # a double run replays the identical hit/miss pattern.
    default_mckp_cache().clear()
    world = ChaosWorld(
        seed=cfg.seed, meetings=cfg.meetings, mean_size=cfg.mean_size
    )
    cluster = ControllerCluster(
        ClusterConfig(
            shards=cfg.shards,
            min_interval_s=cfg.report_interval_s,
            max_interval_s=3.0 * cfg.report_interval_s,
            max_solves_per_round=cfg.max_solves_per_round,
            solver=SolverConfig(granularity_kbps=25),
        )
    )
    runtime = SimRuntime()
    log = events_out if events_out is not None else EventLog()
    injector = StreamFaultInjector(faults)
    stream = generate_stream(
        cfg.seed,
        world,
        StreamConfig(
            duration_s=cfg.duration_s,
            report_interval_s=cfg.report_interval_s,
            mutations_per_meeting=cfg.mutations_per_meeting,
        ),
    )
    with span(obs_names.SPAN_INGRESS_RUN), obs_events.record_events(log):
        for meeting_id in world.meeting_ids:
            cluster.register(meeting_id)
        backend = ClusterBackend(cluster, world)
        plane = IngressPlane(
            runtime,
            backend,
            IngressConfig(
                mailbox_capacity=cfg.mailbox_capacity,
                solve_slots=cfg.solve_slots,
            ),
        )
        plane.run_stream(stream, injector, duration_s=cfg.duration_s)

    checker = InvariantChecker()
    decisions: List[dict] = []
    meetings: dict = {}
    for decision in plane.decisions:
        checker.check_solution(
            decision.meeting,
            decision.payload,
            decision.solution,
            decision.decided_at_s,
        )
        decisions.append(
            {
                "t": round(decision.decided_at_s, 6),
                "meeting": decision.meeting,
                "cid": decision.cid,
                "trigger": decision.trigger,
                "source": decision.source,
                "batch": decision.batch,
                "digest": decision.digest,
                "latency_s": round(decision.latency_s, 6),
            }
        )
        summary = meetings.setdefault(
            decision.meeting, {"decisions": 0, "digests": []}
        )
        summary["decisions"] += 1
        if not summary["digests"] or summary["digests"][-1] != decision.digest:
            summary["digests"].append(decision.digest)
    for meeting_id, box_stats in plane.mailbox_stats().items():
        meetings.setdefault(
            meeting_id, {"decisions": 0, "digests": []}
        )["mailbox"] = box_stats

    by_source: dict = {}
    for row in decisions:
        by_source[row["source"]] = by_source.get(row["source"], 0) + 1

    # Assemble the trace plane from the run's event log: the digest joins
    # the determinism contract, and the per-stage attribution explains
    # where the virtual decision latency went.
    traces = assemble_trees(log.events)
    stage_totals: dict = {}
    for stage, samples in traces.stage_latencies().items():
        stage_totals[stage] = {
            "count": len(samples),
            "total_s": round(sum(d for (_, d) in samples), 6),
        }

    stats = plane.stats
    report = IngressReport(
        seed=cfg.seed,
        duration_s=cfg.duration_s,
        config=cfg.to_dict(),
        totals={
            "offered": stats.offered,
            "enqueued": stats.enqueued,
            "evicted": stats.evicted,
            "dropped": stats.dropped,
            "delayed": stats.delayed,
            "decisions": stats.decisions,
            "coalesced": stats.coalesced,
            "shed": stats.shed,
            "shed_overflow": stats.shed_overflow,
            "shed_admission": stats.shed_admission,
            "idle_refreshes": stats.idle_refreshes,
            "stream_events": len(stream),
            "max_mailbox_depth": stats.max_mailbox_depth,
        },
        decisions_by_source=dict(sorted(by_source.items())),
        decisions=decisions,
        latency={
            "p50_s": round(plane.latency_percentile_s(0.50), 6),
            "p95_s": round(plane.latency_percentile_s(0.95), 6),
            "max_s": round(
                max((d.latency_s for d in plane.decisions), default=0.0), 6
            ),
        },
        checks=dict(sorted(checker.checks.items())),
        violations=[v.to_dict() for v in checker.violations],
        meetings=meetings,
        events_total=log.emitted,
        event_digest=log.digest(),
        trace_digest=traces.digest(),
        stages=stage_totals,
    )
    return report
