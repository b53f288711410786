"""Timing spans: ``with span("kmr.knapsack"): ...`` wall-clock timers.

A span observes the wall-clock duration of one synchronous scope into
the registry histogram :data:`repro.obs.names.SPAN_SECONDS` under its
own name (label ``span``).  It keeps no other state, so spans opened by
different threads or coroutines cannot disturb each other; keep
``await`` outside a span, or it also times whatever ran meanwhile.

When the registry is disabled (the default), :func:`span` returns one
shared no-op context manager: entering and exiting costs two empty
method calls and records nothing.
"""

from __future__ import annotations

import time

from .names import SPAN_SECONDS
from .registry import get_registry


class _Span:
    """The live context manager behind :func:`span`."""

    __slots__ = ("_histogram", "_start_s")

    def __init__(self, histogram) -> None:
        self._histogram = histogram
        self._start_s = 0.0

    def __enter__(self) -> None:
        self._start_s = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(time.perf_counter() - self._start_s)


class _NullSpan:
    """Shared no-op span used while instrumentation is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str):
    """A context manager timing its body into ``repro_span_seconds{span=name}``."""
    reg = get_registry()
    if not reg.enabled:
        return _NULL_SPAN
    return _Span(reg.histogram(SPAN_SECONDS, span=name))
