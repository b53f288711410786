"""Canonical metric and span names emitted by the repro instrumentation.

Every instrumented call site imports its metric name from here, and
``docs/OBSERVABILITY.md`` documents exactly these names — a unit test
(``tests/obs/test_docs_match.py``) fails if the two drift apart.  Each
name is recorded at exactly one site (``tests/obs/test_one_owner.py``):
either pushed, or yielded by the stats object that keeps the number and
is read at snapshot (``MetricsRegistry.watch``).  Add a new metric by
(1) defining the constant here, (2) recording it at its one site, and
(3) documenting it, with its owner and its reader, in the operator guide.

Naming follows the Prometheus conventions: ``repro_`` namespace prefix,
``_total`` suffix for counters, base units in the name (``_seconds``,
``_kbps``), label dimensions kept low-cardinality (scheme, span, reason —
never per-client ids).
"""

from __future__ import annotations

from typing import Dict, Tuple

# --------------------------------------------------------------------- #
# KMR solver (repro.core.solver)
# --------------------------------------------------------------------- #

#: Counter — KMR solves started.
KMR_SOLVES = "repro_kmr_solves_total"
#: Counter — total KMR iterations across all solves.
KMR_ITERATIONS_TOTAL = "repro_kmr_iterations_total"
#: Histogram — iterations needed per solve (convergence speed, Fig. 6).
KMR_ITERATIONS = "repro_kmr_iterations"
#: Histogram — wall-clock seconds per solve (Fig. 9's CPU cost).
KMR_SOLVE_SECONDS = "repro_kmr_solve_seconds"
#: Counter — Step-3 deletion events (one feasible resolution removed).
KMR_REDUCTIONS = "repro_kmr_reductions_total"
#: Counter, label ``reason`` in {"solved", "iteration_cap"} — how solves end.
KMR_CONVERGENCE = "repro_kmr_convergence_total"
#: Counter — subscriber re-solves skipped by the dirty-set (Step 1
#: reused the previous iteration's requests for every subscriber that
#: did not hold the deleted stream).
KMR_STEP1_SKIPPED = "repro_kmr_step1_skipped_total"
#: Histogram — dirty-set size per iteration after the first (the audience
#: of the policy entry the reduction deleted; the full-subscriber first
#: iteration is not observed).
KMR_DIRTY_SET_SIZE = "repro_kmr_dirty_set_size"

# --------------------------------------------------------------------- #
# MCKP dynamic program (repro.core.mckp)
# --------------------------------------------------------------------- #

#: Counter — optional-pick DP tables built: one per capacity profile
#: (a distinct Step-1 class structure missing the profile cache) plus one
#: per scalar ``solve_mckp_dp`` call.
MCKP_SOLVES = "repro_mckp_dp_solves_total"
#: Counter — classes the capacity profiles swept: one per DP prefix state
#: built, so a profile that reuses a known class prefix sweeps only the
#: classes after it.
MCKP_CLASS_SWEEPS = "repro_mckp_class_sweeps_total"
#: Histogram — DP table size in cells (classes x capacity slots).
MCKP_TABLE_CELLS = "repro_mckp_dp_table_cells"

# --------------------------------------------------------------------- #
# Incremental solve engine (repro.core.engine)
# --------------------------------------------------------------------- #

#: Counter, label ``result`` in {"hit", "miss"} — process-wide capacity
#: profile cache lookups (one per distinct class structure per step).
MCKP_CACHE = "repro_mckp_cache_total"
#: Counter — LRU evictions from the capacity-profile cache.
MCKP_CACHE_EVICTIONS = "repro_mckp_cache_evictions_total"
#: Gauge — profiles currently retained by the capacity-profile cache.
MCKP_CACHE_ENTRIES = "repro_mckp_cache_entries"
#: Counter — subscribers answered by an answer another subscriber of the
#: same knapsack step already materialized (same shape, same breakpoint).
MCKP_INSTANCES_DEDUPED = "repro_mckp_instances_deduped_total"

# --------------------------------------------------------------------- #
# Spans (repro.obs.spans)
# --------------------------------------------------------------------- #

#: Histogram, label ``span`` — wall-clock seconds per span entry/exit.
SPAN_SECONDS = "repro_span_seconds"

#: Span names used by the built-in instrumentation (label values of
#: :data:`SPAN_SECONDS`).
SPAN_KMR_KNAPSACK = "kmr.knapsack"
SPAN_KMR_KNAPSACK_DIRTY = "kmr.knapsack_dirty"
SPAN_KMR_MERGE = "kmr.merge"
SPAN_KMR_REDUCTION = "kmr.reduction"

# --------------------------------------------------------------------- #
# Sec. 7 guards of a conference's controller
# (repro.control.gso_controller.GuardStats)
# --------------------------------------------------------------------- #

#: Counter — Sec. 7 single-stream fallbacks engaged.
CONTROLLER_FALLBACKS = "repro_controller_fallbacks_total"
#: Counter — resolution upgrades suppressed by the cooldown.
CONTROLLER_UPGRADES_SUPPRESSED = "repro_controller_upgrades_suppressed_total"
#: Counter — dead-stream failure downgrades applied.
CONTROLLER_DOWNGRADES = "repro_controller_downgrades_total"

# --------------------------------------------------------------------- #
# Feedback executor (repro.control.feedback)
# --------------------------------------------------------------------- #

#: Counter — solutions pushed to the media/user planes.
FEEDBACK_EXECUTIONS = "repro_feedback_executions_total"
#: Counter — GSO TMMBR configuration messages sent to publishers.
FEEDBACK_TMMBR_SENT = "repro_feedback_tmmbr_sent_total"
#: Counter — per-(subscriber, publisher) forwarding-table rewrites.
FEEDBACK_FORWARDING_UPDATES = "repro_feedback_forwarding_updates_total"
#: Histogram — TMMBR fan-out per execution (publishers reconfigured).
FEEDBACK_FANOUT = "repro_feedback_fanout"

# --------------------------------------------------------------------- #
# Meeting runner (repro.conference.runner)
# --------------------------------------------------------------------- #

#: Counter, label ``kind`` in {"semb", "tmmbn", "other"} — upstream RTCP
#: APP packets routed by the runner.
RUNNER_RTCP_APP = "repro_runner_rtcp_app_total"

# --------------------------------------------------------------------- #
# Controller cluster (repro.cluster)
# --------------------------------------------------------------------- #

#: Counter — solve requests entering the solve service.
CLUSTER_SOLVE_REQUESTS = "repro_cluster_solve_requests_total"
#: Counter — solve requests shed by admission control (served fallback).
CLUSTER_SHED = "repro_cluster_shed_total"
#: Gauge, label ``shard`` — meetings currently homed on each shard.
CLUSTER_MEETINGS = "repro_cluster_meetings"
#: Counter, label ``reason`` in {"shard_killed", "shard_added",
#: "manual"} — meetings moved between shards by ``migrate_meeting``,
#: one per move.
CLUSTER_REHOMED = "repro_cluster_rehomed_meetings_total"
#: Counter — shard-death failovers executed.
CLUSTER_SHARD_FAILOVERS = "repro_cluster_shard_failovers_total"
#: Counter — Sec. 7 single-stream fallbacks served by the cluster
#: (shed requests, dead-shard handover, solver failures).
CLUSTER_FALLBACKS = "repro_cluster_fallbacks_total"
#: Histogram — wall-clock seconds per solve-service request (cache hits
#: and misses alike).
CLUSTER_SOLVE_SECONDS = "repro_cluster_solve_seconds"

# --------------------------------------------------------------------- #
# Chaos & invariant checking (repro.chaos)
# --------------------------------------------------------------------- #

#: Counter, label ``kind`` — faults injected by chaos runs, by fault kind
#: (``kill_shard``, ``drop_report``, ``downlink_collapse``, ...).
CHAOS_FAULTS = "repro_chaos_faults_injected_total"
#: Counter, label ``invariant`` — invariant evaluations performed
#: (``constraints``, ``kmr_convergence``, ``fallback_availability``,
#: ``determinism``).
CHAOS_CHECKS = "repro_chaos_invariant_checks_total"
#: Counter, label ``invariant`` — invariant evaluations that FAILED.
#: Any non-zero value is a bug in the orchestration stack.
CHAOS_VIOLATIONS = "repro_chaos_invariant_violations_total"
#: Counter, label ``verdict`` in {"pass", "fail"} — chaos runs completed.
CHAOS_RUNS = "repro_chaos_runs_total"
#: Histogram — virtual seconds a meeting spent degraded on the Sec. 7
#: single-stream fallback before re-converging to a full KMR solution.
CHAOS_RECOVERY_SECONDS = "repro_chaos_fallback_recovery_seconds"

#: Chaos span names.
SPAN_CHAOS_RUN = "chaos.run"

# --------------------------------------------------------------------- #
# Event-driven ingress plane (repro.ingress)
# --------------------------------------------------------------------- #

#: Counter — stream events offered to the ingress dispatcher.
INGRESS_EVENTS = "repro_ingress_events_total"
#: Counter — events folded into an already-open decision window (the
#: mailbox coalesce).
INGRESS_COALESCED = "repro_ingress_coalesced_total"
#: Counter, label ``reason`` in {"overflow", "admission"} — decisions
#: shed to the Sec. 7 single-stream fallback by the backpressure ladder.
INGRESS_SHED = "repro_ingress_shed_total"
#: Counter — stream events dropped by an injected SEMB-loss fault.
INGRESS_DROPPED_EVENTS = "repro_ingress_dropped_events_total"
#: Counter — stream events held back by an injected SEMB-delay fault.
INGRESS_DELAYED_EVENTS = "repro_ingress_delayed_events_total"
#: Histogram — mailbox depth observed at each decision.
INGRESS_MAILBOX_DEPTH = "repro_ingress_mailbox_depth"
#: Histogram — virtual seconds from the oldest event of a decision
#: window to its TMMBR completion (the bounded p95 the benchmark gates).
INGRESS_DECISION_SECONDS = "repro_ingress_decision_latency_seconds"

#: Ingress span name.
SPAN_INGRESS_DECIDE = "ingress.decide"

# --------------------------------------------------------------------- #
# Telemetry pipeline (repro.obs.events / slo)
# --------------------------------------------------------------------- #

#: Counter — structured events appended to an event log.
EVENTS_EMITTED = "repro_events_emitted_total"
#: Counter — events evicted from the bounded event-log ring on overflow.
EVENTS_DROPPED = "repro_events_dropped_total"
#: Counter, label ``slo`` — SLO objective evaluations performed.
SLO_EVALUATIONS = "repro_slo_evaluations_total"
#: Counter, label ``slo`` — SLO evaluations whose full-window verdict
#: breached the objective.
SLO_BREACHES = "repro_slo_breaches_total"

#: Telemetry span names.
SPAN_SLO_EVALUATE = "slo.evaluate"

# --------------------------------------------------------------------- #
# Causal trace plane (repro.obs.tracing)
# --------------------------------------------------------------------- #

#: Counter — decision trace trees assembled from the event log (a tree
#: is counted when it is finalized: terminal event seen, or flushed).
TRACE_TREES_ASSEMBLED = "repro_trace_trees_assembled_total"
#: Counter — events without a correlation id folded into ambient
#: singleton trees (faults, shard lifecycle).
TRACE_ORPHAN_EVENTS = "repro_trace_orphan_events_total"
#: Histogram, label ``stage`` — per-stage virtual seconds attributed by
#: critical-path extraction (``mailbox_dwell``, ``solve``, ``delivery``,
#: ``shed``).
TRACE_STAGE_SECONDS = "repro_trace_stage_seconds"

#: Trace-plane span names.
SPAN_TRACE_ASSEMBLE = "trace.assemble"


#: Every canonical metric name, with (kind, labels) — consumed by the
#: docs-consistency test and the ``repro obs names`` CLI.
ALL_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    KMR_SOLVES: ("counter", ()),
    KMR_ITERATIONS_TOTAL: ("counter", ()),
    KMR_ITERATIONS: ("histogram", ()),
    KMR_SOLVE_SECONDS: ("histogram", ()),
    KMR_REDUCTIONS: ("counter", ()),
    KMR_CONVERGENCE: ("counter", ("reason",)),
    KMR_STEP1_SKIPPED: ("counter", ()),
    KMR_DIRTY_SET_SIZE: ("histogram", ()),
    MCKP_SOLVES: ("counter", ()),
    MCKP_CLASS_SWEEPS: ("counter", ()),
    MCKP_TABLE_CELLS: ("histogram", ()),
    MCKP_CACHE: ("counter", ("result",)),
    MCKP_CACHE_EVICTIONS: ("counter", ()),
    MCKP_CACHE_ENTRIES: ("gauge", ()),
    MCKP_INSTANCES_DEDUPED: ("counter", ()),
    SPAN_SECONDS: ("histogram", ("span",)),
    CONTROLLER_FALLBACKS: ("counter", ()),
    CONTROLLER_UPGRADES_SUPPRESSED: ("counter", ()),
    CONTROLLER_DOWNGRADES: ("counter", ()),
    FEEDBACK_EXECUTIONS: ("counter", ()),
    FEEDBACK_TMMBR_SENT: ("counter", ()),
    FEEDBACK_FORWARDING_UPDATES: ("counter", ()),
    FEEDBACK_FANOUT: ("histogram", ()),
    RUNNER_RTCP_APP: ("counter", ("kind",)),
    CLUSTER_SOLVE_REQUESTS: ("counter", ()),
    CLUSTER_SHED: ("counter", ()),
    CLUSTER_MEETINGS: ("gauge", ("shard",)),
    CLUSTER_REHOMED: ("counter", ("reason",)),
    CLUSTER_SHARD_FAILOVERS: ("counter", ()),
    CLUSTER_FALLBACKS: ("counter", ()),
    CLUSTER_SOLVE_SECONDS: ("histogram", ()),
    CHAOS_FAULTS: ("counter", ("kind",)),
    CHAOS_CHECKS: ("counter", ("invariant",)),
    CHAOS_VIOLATIONS: ("counter", ("invariant",)),
    CHAOS_RUNS: ("counter", ("verdict",)),
    CHAOS_RECOVERY_SECONDS: ("histogram", ()),
    INGRESS_EVENTS: ("counter", ()),
    INGRESS_COALESCED: ("counter", ()),
    INGRESS_SHED: ("counter", ("reason",)),
    INGRESS_DROPPED_EVENTS: ("counter", ()),
    INGRESS_DELAYED_EVENTS: ("counter", ()),
    INGRESS_MAILBOX_DEPTH: ("histogram", ()),
    INGRESS_DECISION_SECONDS: ("histogram", ()),
    EVENTS_EMITTED: ("counter", ()),
    EVENTS_DROPPED: ("counter", ()),
    SLO_EVALUATIONS: ("counter", ("slo",)),
    SLO_BREACHES: ("counter", ("slo",)),
    TRACE_TREES_ASSEMBLED: ("counter", ()),
    TRACE_ORPHAN_EVENTS: ("counter", ()),
    TRACE_STAGE_SECONDS: ("histogram", ("stage",)),
}

#: Every built-in span name — label values of :data:`SPAN_SECONDS`.
ALL_SPANS: Tuple[str, ...] = (
    SPAN_KMR_KNAPSACK,
    SPAN_KMR_KNAPSACK_DIRTY,
    SPAN_KMR_MERGE,
    SPAN_KMR_REDUCTION,
    SPAN_CHAOS_RUN,
    SPAN_INGRESS_DECIDE,
    SPAN_SLO_EVALUATE,
    SPAN_TRACE_ASSEMBLE,
)
