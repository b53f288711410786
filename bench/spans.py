"""The traced run: in-memory spans around each layer's public calls.

Spans are recorded from the benchmark's own files only: wrappers are
installed by name, for one round, on the objects that round built and on
a few module-level functions, and removed afterwards.  A span is
``{name, start, end, parent, decision}``; a layer's self time is its
spans' duration minus the part their child spans cover.  The layer of a
span is the prefix of its name (``core.knapsack`` -> ``core``).

A probe whose target no longer exists is skipped with a one-line warning
and its metrics report ``None``, so deleting the pool, the kernel
registry or a cache layer does not break the benchmark that judges it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

#: (span name, owner, attribute).  An owner is a dotted path from one of
#: the round's objects (``plane``, ``backend``, ``cluster``) or an
#: importable ``module`` / ``module:Class``.
PROBES = (
    ("ingress.offer", "plane", "offer"),
    ("rtp.semb_decode", "backend", "decode_semb"),
    ("world.apply_event", "backend", "mutate"),
    ("world.payload", "backend", "payload"),
    ("placement.service_cost", "backend", "service_s"),
    ("cluster.pace", "backend", "backpressure_window_s"),
    ("cluster.pace", "backend", "over_budget"),
    ("ingress.decide", "backend", "decide"),
    ("cluster.solve_request", "cluster", "solve_request"),
    ("core.fingerprint", "repro.core.constraints:Problem", "fingerprint"),
    ("cluster.cache_get", "cluster.cache", "get"),
    ("cluster.cache_put", "cluster.cache", "put"),
    ("core.solve", "cluster.pool", "solve"),
    ("core.knapsack", "repro.core.solver", "knapsack_step"),
    ("core.merge", "repro.core.solver", "merge_step"),
    ("core.reduction", "repro.core.solver", "reduction_step"),
    ("ingress.solution_digest", "backend", "digest"),
    ("rtp.tmmbr_encode", "backend", "push_tmmbr"),
    ("bench.reference", "backend.host", "slice"),
)
#: Calls that are only counted (a span per heap push would cost more
#: than the push).
COUNTERS = (("net.sim_scheduled", "plane.runtime.sim", "schedule"),)

ROOT = "ingress.run_stream"
ASSEMBLE = "obs.assemble"
_MISSING = object()


def _resolve(path: str, roots: Dict[str, object]):
    head, _, rest = path.partition(".")
    if head in roots:
        obj = roots[head]
        for part in filter(None, rest.split(".")):
            obj = getattr(obj, part)
    else:
        module, _, cls = path.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
    if obj is None:
        raise AttributeError(path)
    return obj


class Tracer:
    """Span recorder for one single-threaded round."""

    def __init__(self, probes=PROBES) -> None:
        self.probes = tuple(probes)
        #: [name, start, end, parent index or -1, decision index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        #: Span or counter names whose probe target was not found.
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._decision = -1
        self._decisions = 0
        self._patched: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._decision])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        opens_decision = name == "ingress.decide"

        def traced(*args, **kwargs):
            if opens_decision:
                self._decision = self._decisions
                self._decisions += 1
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                if opens_decision:
                    self._decision = -1

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        self.counts[name] = 0

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, roots: Dict[str, object]) -> None:
        for name, owner_path, attr in self.probes + COUNTERS:
            is_counter = (name, owner_path, attr) in COUNTERS
            try:
                owner = _resolve(owner_path, roots)
                original = getattr(owner, attr)
                saved = vars(owner).get(attr, _MISSING)
                setattr(owner, attr, (self._count if is_counter else self._wrap)(name, original))
            except (AttributeError, ImportError, TypeError):
                self.missing.append(name)
                self.counts.pop(name, None)
                print(
                    f"warning: probe {name}: {owner_path}.{attr} not found; "
                    "its metrics read null",
                    file=sys.stderr,
                )
                continue
            self._patched.append((owner, attr, saved))

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._patched):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patched.clear()

    # -- analysis ------------------------------------------------------ #

    def summary(self) -> "Summary":
        return Summary(self.spans)

    def write(self, path, workload: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": workload,
                    "fields": ["name", "start", "end", "parent", "decision"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                    "counts": self.counts,
                    "missing": self.missing,
                },
                fh,
            )


class Summary:
    """Durations and self seconds per span name, and per layer."""

    def __init__(self, spans: List[list]) -> None:
        self.durations: Dict[str, List[float]] = {}
        self.self_s: Dict[str, float] = {}
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _), child_s in zip(spans, covered):
            self.durations.setdefault(name, []).append(end - start)
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - child_s)
        #: The timed region: the replay plus, under obs, trace assembly,
        #: minus the benchmark's own reference slices.
        self.root_s = (
            sum(self.durations.get(ROOT, ()))
            + sum(self.durations.get(ASSEMBLE, ()))
            - self.layer_self_s("bench")
        )

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.split(".")[0] == layer)

    def share(self, layer: str) -> Optional[float]:
        return self.layer_self_s(layer) / self.root_s if self.root_s else None
