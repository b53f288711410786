"""Declarative SLO engine: paper-pinned objectives with burn-rate verdicts.

Each :class:`Slo` binds one *measure* (computed from a run's serves,
events, derived stats, or the live registry) to a threshold taken from
the paper's operational evaluation:

* **solve latency** must sit well inside the Fig. 12 control-latency
  envelope (the ingress plane already debounces to the 1–3 s window, so
  the solve itself must be a small fraction of the 1 s floor);
* **KMR iterations** must respect the |publishers| x |resolutions| + 1
  convergence bound (Sec. 5 / Fig. 6) — expressed as a ratio so one
  verdict covers meetings of any size;
* **fallback/shed rate** bounds how often the cluster degrades to the
  Sec. 7 single-stream fallback instead of serving a KMR solution;
* **stream-interruption duration** bounds how long any one meeting stays
  degraded before re-converging (Sec. 7's recovery story).

Verdicts are **burn-rate style**: every measure is evaluated over the
full run window *and* over the trailing fraction of it (default the last
25%).  ``ok`` reflects the full window; a breach that also burns in the
recent window (``fast_burn``) means the violation is ongoing rather than
a transient from early in the run.

Determinism: measures over serves/events/stats derive from simulated
time only and are exactly reproducible for a seeded run — those verdicts
are embedded in the chaos :class:`~repro.chaos.report.RunReport` (and
hence its digest).  Wall-clock measures (registry latency histograms)
are marked ``deterministic=False`` and are *reported but never digested*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import names as obs_names
from .registry import MetricsRegistry, instruments, quantile
from .spans import span

#: Comparators an :class:`Slo` may use.
_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
}

#: Serve sources that count as degraded service (Sec. 7).
DEGRADED_SOURCES = ("fallback", "shed")


@dataclass(frozen=True)
class Slo:
    """One declarative objective.

    Attributes:
        name: short stable identifier (``solve_latency_p95``).
        description: one-line operator-facing objective statement.
        measure: measure key dispatched by the engine — one of
            ``serves_degraded_fraction``, ``serves_max_interruption_s``,
            ``stat:<key>``, ``histogram_p95:<metric>`` or
            ``histogram_max:<metric>``.
        threshold: the objective's bound.
        comparator: ``"<="`` (value must stay under) or ``">="``.
        unit: unit string for rendering ("s", "ratio", ...).
        deterministic: True when the measure derives only from simulated
            time (safe to embed in digested reports).
        paper_ref: where in the paper the objective comes from.
    """

    name: str
    description: str
    measure: str
    threshold: float
    comparator: str = "<="
    unit: str = ""
    deterministic: bool = True
    paper_ref: str = ""

    def __post_init__(self) -> None:
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")


@dataclass
class SloVerdict:
    """The outcome of evaluating one :class:`Slo` over a run."""

    name: str
    description: str
    measure: str
    threshold: float
    comparator: str
    unit: str
    deterministic: bool
    paper_ref: str
    #: Full-window measured value (None when the measure had no data).
    value: Optional[float]
    #: Trailing-window measured value (None when no data).
    recent_value: Optional[float]
    #: True when the full-window value meets the objective (vacuously
    #: true with no data).
    ok: bool
    #: True when BOTH windows breach — the violation is ongoing.
    fast_burn: bool
    windows: Dict[str, Optional[float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "measure": self.measure,
            "threshold": round(self.threshold, 6),
            "comparator": self.comparator,
            "unit": self.unit,
            "deterministic": self.deterministic,
            "value": None if self.value is None else round(self.value, 6),
            "recent_value": (
                None if self.recent_value is None
                else round(self.recent_value, 6)
            ),
            "ok": self.ok,
            "fast_burn": self.fast_burn,
        }

    def verdict_word(self) -> str:
        if self.value is None:
            return "SKIP"
        if self.ok:
            return "PASS"
        return "BURN" if self.fast_burn else "FAIL"


@dataclass
class SloContext:
    """Inputs a measure may draw from.  All optional; a measure whose
    input is missing yields a SKIP verdict rather than an error.

    Attributes:
        serves: chaos-report serve rows (dicts with ``t``/``meeting``/
            ``source``/``delivered``), ordered by time.
        duration_s: run length in simulated seconds.
        stats: pre-computed scalar measures (``stat:<key>`` lookups),
            e.g. ``kmr_iteration_ratio_max``.
        registry: live registry for wall-clock latency measures.
        stage_latencies: per-stage ``(start_s, duration_s)`` samples from
            the trace plane (``TraceAssembler.stage_latencies``), for
            ``stage_p95:<stage>`` budget objectives.
    """

    serves: Sequence[Mapping[str, object]] = ()
    duration_s: float = 0.0
    stats: Mapping[str, float] = field(default_factory=dict)
    registry: Optional[MetricsRegistry] = None
    stage_latencies: Mapping[str, Sequence[Tuple[float, float]]] = field(
        default_factory=dict
    )


#: The default catalog, pinned to the paper.
DEFAULT_SLOS: Tuple[Slo, ...] = (
    Slo(
        name="solve_latency_p95",
        description="p95 solve-service latency stays well inside the "
                    "Fig. 12 control envelope",
        measure=f"histogram_p95:{obs_names.CLUSTER_SOLVE_SECONDS}",
        threshold=0.25,
        comparator="<=",
        unit="s",
        deterministic=False,
        paper_ref="Fig. 12",
    ),
    Slo(
        name="kmr_iteration_bound",
        description="every solve converges within the "
                    "|publishers| x |resolutions| + 1 iteration bound",
        measure="stat:kmr_iteration_ratio_max",
        threshold=1.0,
        comparator="<=",
        unit="ratio",
        deterministic=True,
        paper_ref="Sec. 5 / Fig. 6",
    ),
    Slo(
        name="degraded_serve_rate",
        description="fraction of serves degraded to the single-stream "
                    "fallback (or shed) stays bounded",
        measure="serves_degraded_fraction",
        threshold=0.5,
        comparator="<=",
        unit="ratio",
        deterministic=True,
        paper_ref="Sec. 7",
    ),
    Slo(
        name="stream_interruption_s",
        description="no meeting stays degraded longer than the recovery "
                    "budget before re-converging",
        measure="serves_max_interruption_s",
        threshold=6.0,
        comparator="<=",
        unit="s",
        deterministic=True,
        paper_ref="Sec. 7",
    ),
)


#: Per-stage p95 latency budgets (virtual seconds) for the trace plane's
#: critical-path stages.  Budgets bound each stage's share of the Fig. 12
#: control envelope: mailbox dwell may consume the debounce window (the
#: paper's 1-3 s coalescing ceiling), while solve and delivery must stay
#: small.  A
#: BURN on one of these names the offending stage directly.
STAGE_BUDGETS_S: Dict[str, float] = {
    "mailbox_dwell": 3.0,
    "solve": 1.0,
    "delivery": 1.0,
    "shed": 1.0,
}


def stage_budget_slos(**overrides: float) -> List[Slo]:
    """Per-stage latency-budget objectives over trace-plane attribution.

    One ``stage_<stage>_p95`` objective per critical-path stage, measured
    from :attr:`SloContext.stage_latencies` (virtual clock — verdicts are
    deterministic and digest-safe).  Per-stage threshold overrides:
    ``stage_budget_slos(solve=0.5)``.
    """
    unknown = set(overrides) - set(STAGE_BUDGETS_S)
    if unknown:
        raise ValueError(f"unknown stage name(s): {sorted(unknown)}")
    out: List[Slo] = []
    for stage in sorted(STAGE_BUDGETS_S):
        threshold = float(overrides.get(stage, STAGE_BUDGETS_S[stage]))
        out.append(Slo(
            name=f"stage_{stage}_p95",
            description=f"p95 {stage} stage latency stays within its "
                        "share of the control-latency envelope",
            measure=f"stage_p95:{stage}",
            threshold=threshold,
            comparator="<=",
            unit="s",
            deterministic=True,
            paper_ref="Fig. 12",
        ))
    return out


def default_slos(**overrides: float) -> List[Slo]:
    """The default catalog, with per-name threshold overrides applied:
    ``default_slos(stream_interruption_s=10.0)``."""
    out: List[Slo] = []
    unknown = set(overrides)
    for slo in DEFAULT_SLOS:
        if slo.name in overrides:
            slo = replace(slo, threshold=float(overrides[slo.name]))
            unknown.discard(slo.name)
        out.append(slo)
    if unknown:
        raise ValueError(f"unknown SLO name(s): {sorted(unknown)}")
    return out


class SloEngine:
    """Evaluates a catalog of objectives against one run's context."""

    def __init__(
        self,
        objectives: Optional[Sequence[Slo]] = None,
        recent_fraction: float = 0.25,
    ) -> None:
        if not 0.0 < recent_fraction <= 1.0:
            raise ValueError("recent_fraction must be in (0, 1]")
        self.objectives: List[Slo] = list(
            objectives if objectives is not None else DEFAULT_SLOS
        )
        self.recent_fraction = recent_fraction

    def evaluate(self, ctx: SloContext) -> List[SloVerdict]:
        """One verdict per objective, in catalog order."""
        from .registry import get_registry

        verdicts: List[SloVerdict] = []
        with span(obs_names.SPAN_SLO_EVALUATE):
            recent_t0 = ctx.duration_s * (1.0 - self.recent_fraction)
            for slo in self.objectives:
                full = self._measure(slo.measure, ctx, t0=float("-inf"))
                recent = self._measure(slo.measure, ctx, t0=recent_t0)
                compare = _COMPARATORS[slo.comparator]
                ok = full is None or compare(full, slo.threshold)
                recent_breach = (
                    recent is not None and not compare(recent, slo.threshold)
                )
                verdicts.append(SloVerdict(
                    name=slo.name,
                    description=slo.description,
                    measure=slo.measure,
                    threshold=slo.threshold,
                    comparator=slo.comparator,
                    unit=slo.unit,
                    deterministic=slo.deterministic,
                    paper_ref=slo.paper_ref,
                    value=full,
                    recent_value=recent,
                    ok=ok,
                    fast_burn=(not ok) and recent_breach,
                    windows={"full": full, "recent": recent},
                ))
            reg = get_registry()
            if reg.enabled:
                for verdict in verdicts:
                    reg.counter(
                        obs_names.SLO_EVALUATIONS, slo=verdict.name
                    ).inc()
                    if not verdict.ok:
                        reg.counter(
                            obs_names.SLO_BREACHES, slo=verdict.name
                        ).inc()
        return verdicts

    # -- measures ---------------------------------------------------------- #

    def _measure(
        self, measure: str, ctx: SloContext, t0: float
    ) -> Optional[float]:
        if measure == "serves_degraded_fraction":
            return _degraded_fraction(ctx.serves, t0)
        if measure == "serves_max_interruption_s":
            return _max_interruption_s(ctx, t0)
        if measure.startswith("stat:"):
            # Scalars are whole-run quantities; no trailing-window view.
            if t0 > float("-inf"):
                return None
            key = measure.split(":", 1)[1]
            value = ctx.stats.get(key)
            return None if value is None else float(value)
        if measure.startswith("histogram_p95:") or measure.startswith(
            "histogram_max:"
        ):
            return _histogram_measure(measure, ctx.registry, t0)
        if measure.startswith("stage_p95:"):
            stage = measure.split(":", 1)[1]
            samples = ctx.stage_latencies.get(stage, ())
            values = sorted(d for (t, d) in samples if t >= t0)
            return quantile(values, 0.95)
        raise ValueError(f"unknown SLO measure {measure!r}")


def _degraded_fraction(
    serves: Sequence[Mapping[str, object]], t0: float
) -> Optional[float]:
    rows = [s for s in serves if float(s.get("t", 0.0)) >= t0]
    if not rows:
        return None
    degraded = sum(1 for s in rows if s.get("source") in DEGRADED_SOURCES)
    return degraded / len(rows)


def _max_interruption_s(ctx: SloContext, t0: float) -> Optional[float]:
    """Longest span any single meeting spent continuously degraded.

    A meeting's interruption starts at its first degraded serve and ends
    at its next full-solution serve; a meeting still degraded when the
    run ends is charged through ``duration_s`` (it never recovered).
    """
    rows = [s for s in ctx.serves if float(s.get("t", 0.0)) >= t0]
    if not rows:
        return None
    per_meeting: Dict[str, List[Tuple[float, bool]]] = {}
    for row in rows:
        meeting = str(row.get("meeting", ""))
        degraded = row.get("source") in DEGRADED_SOURCES
        per_meeting.setdefault(meeting, []).append(
            (float(row.get("t", 0.0)), degraded)
        )
    worst = 0.0
    for entries in per_meeting.values():
        start: Optional[float] = None
        for t, degraded in entries:
            if degraded and start is None:
                start = t
            elif not degraded and start is not None:
                worst = max(worst, t - start)
                start = None
        if start is not None:
            worst = max(worst, ctx.duration_s - start)
    return worst


def _histogram_measure(
    measure: str, registry: Optional[MetricsRegistry], t0: float
) -> Optional[float]:
    if registry is None or not registry.enabled:
        return None
    # Registry histograms pool the whole run; no trailing-window view.
    if t0 > float("-inf"):
        return None
    kind, name = measure.split(":", 1)
    values: List[float] = []
    for key, h in instruments(registry).histograms.items():
        if key[0] != name or not h.count:
            continue
        values.append(h.max if kind == "histogram_max" else h.percentile(95))
    if not values:
        return None
    return max(values)
