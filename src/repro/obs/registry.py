"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the shared substrate of the observability layer
(``repro.obs``): every instrumented hot path — the KMR solver, the MCKP
DP, the controller runtime, the feedback executor, the RTP message codecs,
the fleet simulation, the benchmarks — records through one of the three
instrument kinds defined here.

Design constraints, in priority order:

1. **Off-by-default-cheap.**  The module-level registry starts as a
   :class:`NullRegistry` whose instruments are shared singletons with
   no-op methods, so uninstrumented runs pay only an attribute lookup and
   an empty call per site.  Hot loops additionally guard on
   ``registry.enabled`` to skip label formatting entirely.
2. **Zero dependencies.**  Pure stdlib; exports Prometheus text
   exposition format and JSON without any client library.
3. **Deterministic.**  Histograms keep a *bounded reservoir* with
   deterministic stride-doubling eviction (no RNG), so repeated runs of a
   seeded simulation produce identical snapshots.

Label handling follows the Prometheus data model: an instrument is
identified by ``(name, sorted labels)``; the same name with different
label values yields distinct time series.  Metric names must match
``[a-zA-Z_:][a-zA-Z0-9_:]*``; the canonical names used by the repro
instrumentation live in :mod:`repro.obs.names` and are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import re
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Instrument identity: (metric name, sorted (label, value) pairs).
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default bounded-reservoir size for histograms.
DEFAULT_RESERVOIR = 512


def _make_key(name: str, labels: Mapping[str, str]) -> MetricKey:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    items = []
    for k in sorted(labels):
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
        items.append((k, str(labels[k])))
    return name, tuple(items)


def _format_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """A monotonically increasing count (events, messages, iterations)."""

    __slots__ = ("key", "_value")

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (current satisfaction, queue depth)."""

    __slots__ = ("key", "_value")

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A distribution with exact count/sum/min/max and a bounded reservoir.

    The reservoir keeps at most ``reservoir_size`` observations.  When it
    fills, the eviction is *deterministic stride doubling*: every other
    retained sample is dropped and the sampling stride doubles, so the
    reservoir always holds an evenly spaced subsample of the observation
    stream.  Percentiles interpolate over the sorted reservoir — exact
    until the reservoir first fills, an even subsample afterwards.
    """

    __slots__ = (
        "key",
        "count",
        "sum",
        "min",
        "max",
        "_reservoir",
        "_capacity",
        "_stride",
        "_next_sample",
    )

    def __init__(self, key: MetricKey, reservoir_size: int = DEFAULT_RESERVOIR) -> None:
        if reservoir_size < 2:
            raise ValueError("reservoir_size must be >= 2")
        self.key = key
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: List[float] = []
        self._capacity = reservoir_size
        self._stride = 1
        self._next_sample = 0  # observation index of the next retained sample

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = self.count
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if index != self._next_sample:
            return
        self._next_sample = index + self._stride
        if len(self._reservoir) >= self._capacity:
            # Halve the reservoir, double the stride: retained samples stay
            # evenly spaced over the whole observation stream.
            self._reservoir = self._reservoir[::2]
            self._stride *= 2
            self._next_sample = index + self._stride
        self._reservoir.append(value)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100] of the reservoir.

        Returns ``nan`` when the histogram is empty.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._reservoir:
            return float("nan")
        ordered = sorted(self._reservoir)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    @property
    def reservoir(self) -> Tuple[float, ...]:
        """The retained (evenly spaced) observation subsample."""
        return tuple(self._reservoir)


class MetricsRegistry:
    """A live collection of instruments, keyed by (name, labels).

    Instrument accessors are get-or-create and thread-safe; the instruments
    themselves use GIL-atomic updates (single float adds), which is the
    standard in-process trade-off for zero-dependency metrics.
    """

    #: Real registries record; the :class:`NullRegistry` subclass flips this.
    enabled: bool = True

    def __init__(self, reservoir_size: int = DEFAULT_RESERVOIR) -> None:
        self._lock = threading.Lock()
        self._reservoir_size = reservoir_size
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Instrument accessors
    # ------------------------------------------------------------------ #

    # Accessors take a lock-free fast path for instruments that already
    # exist (dict reads are GIL-atomic); name/label validation and the
    # lock are paid only on first creation, keeping hot loops cheap.

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name{labels}``."""
        key = (name, tuple(sorted(labels.items()))) if labels else (name, ())
        inst = self._counters.get(key)
        if inst is not None:
            return inst
        key = _make_key(name, labels)
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(key)
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        key = (name, tuple(sorted(labels.items()))) if labels else (name, ())
        inst = self._gauges.get(key)
        if inst is not None:
            return inst
        key = _make_key(name, labels)
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(key)
        return inst

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        key = (name, tuple(sorted(labels.items()))) if labels else (name, ())
        inst = self._histograms.get(key)
        if inst is not None:
            return inst
        key = _make_key(name, labels)
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(
                    key, reservoir_size=self._reservoir_size
                )
        return inst

    # ------------------------------------------------------------------ #
    # Snapshot / export
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict snapshot of every instrument.

        Keys are rendered as ``name{label="value",...}`` strings;
        histograms expand to count/sum/min/max/mean and the p50/p90/p99
        percentile estimates.
        """
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        for c in counters:
            out["counters"][_render_key(c.key)] = c.value
        for g in gauges:
            out["gauges"][_render_key(g.key)] = g.value
        for h in histograms:
            out["histograms"][_render_key(h.key)] = {
                "count": h.count,
                "sum": h.sum,
                "min": h.min if h.count else None,
                "max": h.max if h.count else None,
                "mean": h.mean if h.count else None,
                "p50": h.percentile(50) if h.count else None,
                "p90": h.percentile(90) if h.count else None,
                "p99": h.percentile(99) if h.count else None,
            }
        return out

    def metric_names(self) -> List[str]:
        """Sorted, deduplicated bare metric names currently registered."""
        with self._lock:
            names = {key[0] for key in self._counters}
            names |= {key[0] for key in self._gauges}
            names |= {key[0] for key in self._histograms}
        return sorted(names)

    def reset(self) -> None:
        """Drop every instrument (tests and between-run isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def to_prometheus_text(self) -> str:
        """Render the registry in the Prometheus text exposition format.

        Histograms are rendered as the ``_count`` / ``_sum`` summary pair
        plus quantile series (``{quantile="0.5"}`` etc.), i.e. the
        Prometheus *summary* convention, which matches our
        reservoir-percentile model better than fixed buckets.
        """
        lines: List[str] = []
        snap = self.snapshot()
        with self._lock:
            counters = sorted(self._counters.values(), key=lambda i: i.key)
            gauges = sorted(self._gauges.values(), key=lambda i: i.key)
            histograms = sorted(self._histograms.values(), key=lambda i: i.key)
        seen_types: set = set()
        for c in counters:
            name, labels = c.key
            if name not in seen_types:
                lines.append(f"# TYPE {name} counter")
                seen_types.add(name)
            lines.append(f"{name}{_format_labels(labels)} {_num(c.value)}")
        for g in gauges:
            name, labels = g.key
            if name not in seen_types:
                lines.append(f"# TYPE {name} gauge")
                seen_types.add(name)
            lines.append(f"{name}{_format_labels(labels)} {_num(g.value)}")
        for h in histograms:
            name, labels = h.key
            if name not in seen_types:
                lines.append(f"# TYPE {name} summary")
                seen_types.add(name)
            for q in (0.5, 0.9, 0.99):
                value = h.percentile(q * 100) if h.count else float("nan")
                qlabels = tuple(labels) + (("quantile", str(q)),)
                lines.append(f"{name}{_format_labels(qlabels)} {_num(value)}")
            lines.append(f"{name}_sum{_format_labels(labels)} {_num(h.sum)}")
            lines.append(f"{name}_count{_format_labels(labels)} {_num(h.count)}")
        del snap
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Render :meth:`snapshot` as JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def _render_key(key: MetricKey) -> str:
    name, labels = key
    return f"{name}{_format_labels(labels)}"


def _num(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 — no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled registry: shared no-op instruments, nothing recorded.

    All accessors return the same singletons regardless of name/labels, so
    instrumented call sites stay valid while costing only an attribute
    lookup and an empty method call.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        null_key = _make_key("null", {})
        self._null_counter = _NullCounter(null_key)
        self._null_gauge = _NullGauge(null_key)
        self._null_histogram = _NullHistogram(null_key)

    def counter(self, name: str, **labels: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._null_histogram


#: The process-wide registry slot.  Starts disabled.
_REGISTRY: MetricsRegistry = NullRegistry()


def get_registry() -> MetricsRegistry:
    """The currently installed registry (a :class:`NullRegistry` when off)."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide registry; returns it."""
    global _REGISTRY
    _REGISTRY = registry
    return registry


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn instrumentation on (idempotent).

    Installs ``registry`` if given, else keeps the current real registry
    or creates a fresh :class:`MetricsRegistry`.
    """
    global _REGISTRY
    if registry is not None:
        _REGISTRY = registry
    elif not _REGISTRY.enabled:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    """Turn instrumentation off (installs a :class:`NullRegistry`)."""
    global _REGISTRY
    _REGISTRY = NullRegistry()


@contextmanager
def enabled_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Context manager: enable a (fresh by default) registry, then restore.

    ::

        with enabled_registry() as reg:
            solver.solve(problem)
        print(reg.to_prometheus_text())
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    try:
        yield _REGISTRY
    finally:
        _REGISTRY = previous
