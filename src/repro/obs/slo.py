"""The SLO table: eight paper-pinned objectives with burn-rate verdicts.

Each :class:`Slo` row binds one measure of a run (its serves, its
iteration ratio, its trace-plane stage latencies, or the live registry)
to a threshold taken from the paper's operational evaluation:

* **solve latency** must sit well inside the Fig. 12 control-latency
  envelope (the ingress plane already debounces to the 1–3 s window, so
  the solve itself must be a small fraction of the 1 s floor);
* **KMR iterations** must respect the |publishers| x |resolutions| + 1
  convergence bound (Sec. 5 / Fig. 6) — expressed as a ratio so one
  verdict covers meetings of any size;
* **fallback/shed rate** bounds how often the cluster degrades to the
  Sec. 7 single-stream fallback instead of serving a KMR solution;
* **stream-interruption duration** bounds how long any one meeting stays
  degraded before re-converging (Sec. 7's recovery story);
* **per-stage budgets** bound each critical-path stage's p95 latency
  (:data:`STAGE_BUDGETS_S`).

Verdicts are **burn-rate style**: every measure is evaluated over the
full run window *and* over its last :data:`RECENT_FRACTION`.  ``ok``
reflects the full window; a breach that also burns in the recent window
(``fast_burn``) means the violation is ongoing rather than a transient
from early in the run.

Determinism: measures over serves/stats/stage latencies derive from
simulated time only and are exactly reproducible for a seeded run —
those verdicts are embedded in the chaos
:class:`~repro.chaos.report.RunReport` (and hence its digest).  The
wall-clock measure (the registry's solve-latency histogram) is marked
``deterministic=False`` and is *reported but never digested*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from . import names as obs_names
from .registry import MetricsRegistry, get_registry, instruments, quantile
from .spans import span

#: Comparators an :class:`Slo` may use.
_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
}

#: Serve sources that count as degraded service (Sec. 7).
DEGRADED_SOURCES = ("fallback", "shed")

#: The trailing window every verdict is also judged over: the last 25 %
#: of the run.
RECENT_FRACTION = 0.25

#: The window start of a full-run measure.
_WHOLE_RUN = float("-inf")


class _Run(NamedTuple):
    """What the measures read; see :func:`evaluate_slos`."""

    serves: Sequence[Mapping[str, object]]
    duration_s: float
    iteration_ratio_max: Optional[float]
    stage_latencies: Mapping[str, Sequence[Tuple[float, float]]]
    registry: Optional[MetricsRegistry]


#: A measure: the run and the window start -> value (None = no data).
Measure = Callable[[_Run, float], Optional[float]]


@dataclass(frozen=True)
class Slo:
    """One row of the SLO table.

    Attributes:
        name: short stable identifier (``solve_latency_p95``).
        description: one-line operator-facing objective statement.
        measure: the label reports print and digest for the measure.
        threshold: the objective's bound.
        value_of: computes the measure over the run from a window start.
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
    value_of: Measure = field(repr=False, compare=False)
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


def verdict_word(row: Mapping[str, object]) -> str:
    """SKIP / PASS / BURN / FAIL for one verdict in its dict encoding."""
    if row.get("value") is None:
        return "SKIP"
    if row.get("ok"):
        return "PASS"
    return "BURN" if row.get("fast_burn") else "FAIL"


# --------------------------------------------------------------------- #
# Measures
# --------------------------------------------------------------------- #


def _solve_latency_p95(run: _Run, t0: float) -> Optional[float]:
    registry = run.registry
    # Registry histograms pool the whole run; no trailing-window view.
    if t0 > _WHOLE_RUN or registry is None or not registry.enabled:
        return None
    values = [
        h.percentile(95)
        for key, h in instruments(registry).histograms.items()
        if key[0] == obs_names.CLUSTER_SOLVE_SECONDS and h.count
    ]
    return max(values) if values else None


def _iteration_ratio_max(run: _Run, t0: float) -> Optional[float]:
    # A whole-run scalar; no trailing-window view.
    return run.iteration_ratio_max if t0 == _WHOLE_RUN else None


def _degraded_fraction(run: _Run, t0: float) -> Optional[float]:
    rows = [s for s in run.serves if float(s.get("t", 0.0)) >= t0]
    if not rows:
        return None
    degraded = sum(1 for s in rows if s.get("source") in DEGRADED_SOURCES)
    return degraded / len(rows)


def _max_interruption_s(run: _Run, t0: float) -> Optional[float]:
    """Longest span any single meeting spent continuously degraded.

    A meeting's interruption starts at its first degraded serve and ends
    at its next full-solution serve; a meeting still degraded when the
    run ends is charged through ``duration_s`` (it never recovered).
    """
    rows = [s for s in run.serves if float(s.get("t", 0.0)) >= t0]
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
            worst = max(worst, run.duration_s - start)
    return worst


def _stage_p95(stage: str) -> Measure:
    def measure(run: _Run, t0: float) -> Optional[float]:
        samples = run.stage_latencies.get(stage, ())
        return quantile(sorted(d for (t, d) in samples if t >= t0), 0.95)

    return measure


# --------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------- #

#: Per-stage p95 latency budgets (virtual seconds) for the trace plane's
#: critical-path stages.  Budgets bound each stage's share of the Fig. 12
#: control envelope: mailbox dwell may consume the debounce window (the
#: paper's 1-3 s coalescing ceiling), while solve and delivery must stay
#: small.  A BURN on one of these names the offending stage directly.
STAGE_BUDGETS_S: Dict[str, float] = {
    "mailbox_dwell": 3.0,
    "solve": 1.0,
    "delivery": 1.0,
    "shed": 1.0,
}

#: The SLO table, in report order: four run-level objectives, then one
#: ``stage_<stage>_p95`` budget per critical-path stage, sorted by stage.
SLOS: Tuple[Slo, ...] = (
    Slo(
        name="solve_latency_p95",
        description="p95 solve-service latency stays well inside the "
                    "Fig. 12 control envelope",
        measure=f"histogram_p95:{obs_names.CLUSTER_SOLVE_SECONDS}",
        threshold=0.25,
        value_of=_solve_latency_p95,
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
        value_of=_iteration_ratio_max,
        unit="ratio",
        paper_ref="Sec. 5 / Fig. 6",
    ),
    Slo(
        name="degraded_serve_rate",
        description="fraction of serves degraded to the single-stream "
                    "fallback (or shed) stays bounded",
        measure="serves_degraded_fraction",
        threshold=0.5,
        value_of=_degraded_fraction,
        unit="ratio",
        paper_ref="Sec. 7",
    ),
    Slo(
        name="stream_interruption_s",
        description="no meeting stays degraded longer than the recovery "
                    "budget before re-converging",
        measure="serves_max_interruption_s",
        threshold=6.0,
        value_of=_max_interruption_s,
        unit="s",
        paper_ref="Sec. 7",
    ),
) + tuple(
    Slo(
        name=f"stage_{stage}_p95",
        description=f"p95 {stage} stage latency stays within its "
                    "share of the control-latency envelope",
        measure=f"stage_p95:{stage}",
        threshold=STAGE_BUDGETS_S[stage],
        value_of=_stage_p95(stage),
        unit="s",
        paper_ref="Fig. 12",
    )
    for stage in sorted(STAGE_BUDGETS_S)
)


def evaluate_slos(
    serves: Sequence[Mapping[str, object]] = (),
    duration_s: float = 0.0,
    iteration_ratio_max: Optional[float] = None,
    stage_latencies: Optional[
        Mapping[str, Sequence[Tuple[float, float]]]
    ] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[SloVerdict]:
    """One verdict per :data:`SLOS` row, in table order.

    Args:
        serves: chaos-report serve rows (dicts with ``t``/``meeting``/
            ``source``/``delivered``), ordered by time.
        duration_s: run length in simulated seconds.
        iteration_ratio_max: the run's largest KMR iterations-to-bound
            ratio.
        stage_latencies: per-stage ``(start_s, duration_s)`` samples of
            the plane's decisions (``ChaosRunner.stage_latencies``).
        registry: live registry for the wall-clock latency measure.

    A row whose input is missing gets a SKIP verdict.  Each verdict
    counts once in ``repro_slo_evaluations_total`` (and a breach in
    ``repro_slo_breaches_total``) on the installed registry.
    """
    run = _Run(
        serves, duration_s, iteration_ratio_max, stage_latencies or {},
        registry,
    )
    recent_t0 = duration_s * (1.0 - RECENT_FRACTION)
    verdicts: List[SloVerdict] = []
    with span(obs_names.SPAN_SLO_EVALUATE):
        for slo in SLOS:
            full = slo.value_of(run, _WHOLE_RUN)
            recent = slo.value_of(run, recent_t0)
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
            ))
        reg = get_registry()
        if reg.enabled:
            for verdict in verdicts:
                reg.counter(obs_names.SLO_EVALUATIONS, slo=verdict.name).inc()
                if not verdict.ok:
                    reg.counter(obs_names.SLO_BREACHES, slo=verdict.name).inc()
    return verdicts
