"""Observability for the GSO reproduction: metrics, events, SLOs.

The package records a decision's inputs and outcome and re-derives the
computation on demand.  It has three mechanisms, all zero-dependency
and all off-by-default-cheap (a disabled run records nothing and pays
only no-op calls on instrumented paths):

* :mod:`repro.obs.registry` — counters, gauges and bounded-reservoir
  histograms with labels; snapshot, Prometheus-text and JSON export.
  Enable with :func:`enable` / :func:`enabled_registry`.
  :mod:`repro.obs.spans` adds ``with span("kmr.knapsack"):``, a
  wall-clock timer that observes into one of its histograms.
* :mod:`repro.obs.events` — correlated structured event log
  (``repro.events/v1`` JSONL): correlation ids minted at cluster
  ingress reconstruct causal per-meeting timelines.  Install with
  :func:`record_events`.  :mod:`repro.obs.tracing` assembles the log
  into per-decision trace trees.
* :mod:`repro.obs.slo` — declarative paper-pinned SLOs (Fig. 12 solve
  latency, KMR iteration bound, fallback rate, Sec. 7 interruption
  duration) with burn-rate style verdicts.

What the solver did inside one decision is not recorded: the solver is
deterministic, so ``repro trace show --cid`` and ``repro obs solve``
replay :func:`repro.core.explain.explain_solve` on the decision's
``Problem``.

Canonical metric/span names live in :mod:`repro.obs.names` and are
documented for operators in ``docs/OBSERVABILITY.md``.  The CLI surface
is ``python -m repro obs ...`` (including ``obs report`` and
``obs timeline <meeting>``).

Quick start::

    from repro import obs

    with obs.enabled_registry() as reg, obs.record_events() as log:
        served = cluster.solve_request("m-1", problem, now_s=0.0)
    print(reg.to_prometheus_text())
    print(obs.format_timeline(log.events, "m-1"))
"""

from . import names
from .events import (
    Event,
    EventLog,
    active_event_log,
    record_events,
    set_event_log,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable,
    enable,
    enabled_registry,
    get_registry,
    set_registry,
)
from .report import (
    correlation_chains,
    format_report,
    format_slo_verdicts,
    format_timeline,
    meeting_timeline,
    report_dict,
    timeline_dict,
)
from .slo import (
    DEFAULT_SLOS,
    Slo,
    SloContext,
    SloEngine,
    SloVerdict,
    default_slos,
)
from .spans import span

__all__ = [
    "names",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "disable",
    "enable",
    "enabled_registry",
    "get_registry",
    "set_registry",
    "span",
    "Event",
    "EventLog",
    "active_event_log",
    "record_events",
    "set_event_log",
    "Slo",
    "SloContext",
    "SloEngine",
    "SloVerdict",
    "DEFAULT_SLOS",
    "default_slos",
    "correlation_chains",
    "format_report",
    "format_slo_verdicts",
    "format_timeline",
    "meeting_timeline",
    "report_dict",
    "timeline_dict",
]
