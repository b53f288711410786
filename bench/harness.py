"""One replay of a workload through the real control path, and its checks.

The path: APP-204 SEMB bytes -> ``rtp`` decode -> ``IngressPlane``
mailboxes and windows -> ``ClusterBackend`` -> ``ControllerCluster.
solve_request`` (placement, fingerprint, ``SolutionCache``, real
``GsoSolver``) -> ``GsoTmmbr`` encode.  Load is a batch replay: arrivals
follow a fixed schedule in virtual time, and the single-threaded
``SimRuntime`` consumes them as fast as the host allows, so the honest
numbers are work per wall second and wall service time per decision,
both read at nominal host speed (:mod:`hostspeed`).

A *round* is one set-up (inputs from the seed, a fresh cluster and
plane, an untimed warm-up, cold caches) followed by one timed replay.
Every round of a run replays the same inputs and must reproduce the
first round's decisions exactly; checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.chaos.report import solution_digest
from repro.cluster import ClusterConfig, ControllerCluster
from repro.core.solver import GsoSolver
from repro.core.types import Resolution
from repro.ingress.aio import SimRuntime
from repro.ingress.events import KIND_SEMB
from repro.ingress.plane import (
    BackendDecision,
    ClusterBackend,
    IngressConfig,
    IngressPlane,
)
from repro.rtp.rtcp import AppPacket, parse_compound
from repro.rtp.semb import SembReport as SembPacket
from repro.rtp.ssrc import SsrcAllocator
from repro.rtp.tmmbr import GsoTmmbr, TmmbrEntry

import spans
import workloads
from hostspeed import HostSpeed

CONTROLLER_SSRC = 0xC0FFEE
#: The resolutions every publisher negotiates, one SSRC each.
WIRE_RESOLUTIONS = (Resolution.P180, Resolution.P360, Resolution.P720)
#: Every n-th decision of the first round is re-solved from scratch.
ORACLE_EVERY = 50
FAILED_SOURCES = ("fallback", "shed")


def optional_attr(module: str, name: str):
    """A public helper looked up by name, ``None`` once it is gone, so a
    ROADMAP deletion does not break the benchmark that judges it."""
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


def reset_process_caches() -> None:
    """Every round starts from the same cold process-wide caches."""
    cache = optional_attr("repro.core.engine", "default_mckp_cache")
    if cache is not None:
        cache().clear()
    stats = optional_attr("repro.core.mckp", "kernel_stats")
    if stats is not None:
        stats().reset()


@dataclass
class Push:
    """One TMMBR packet sent to a publisher."""

    decision: int
    meeting: str
    publisher: str
    config: Dict[Resolution, int]
    data: bytes


class BenchBackend(ClusterBackend):
    """``ClusterBackend`` plus the wire on both ends: SEMB decode at
    offer time, TMMBR diff-and-encode at commit, wall time per decision."""

    def __init__(self, cluster, world) -> None:
        super().__init__(cluster, world)
        self.host = HostSpeed()
        #: (clock at entry, wall seconds) of every ``decide``.
        self.decision_s: List[Tuple[float, float]] = []
        self.pushes: List[Push] = []
        self.semb_decoded = 0
        self.semb_bps_total = 0
        self._ssrcs = SsrcAllocator()
        self._last_config: Dict[str, Dict[str, Dict[Resolution, int]]] = {}
        self._request_id = 0

    def apply_event(self, event) -> None:
        self.host.tick()
        if event.kind == KIND_SEMB:
            self.decode_semb(event.data)
        else:
            self.mutate(event)

    def decode_semb(self, data: bytes) -> None:
        for raw in parse_compound(data):
            report = SembPacket.from_app_packet(AppPacket.parse(raw))
            self.semb_decoded += 1
            self.semb_bps_total += report.bitrate_bps

    def mutate(self, event) -> None:
        super().apply_event(event)

    def decide(self, meeting, payload, now_s, trigger, cid):
        self.host.tick()
        start = time.perf_counter()
        served = self.cluster.solve_request(
            meeting, payload, now_s, trigger=trigger, correlation_id=cid
        )
        digest = self.digest(served.solution)
        self.push_tmmbr(meeting, served.solution)
        self.decision_s.append((start, time.perf_counter() - start))
        return BackendDecision(
            source=served.source, digest=digest, solution=served.solution
        )

    def digest(self, solution) -> str:
        return solution_digest(solution)

    def push_tmmbr(self, meeting: str, solution) -> None:
        """Send a GSO TMMBR to every publisher whose configuration
        changed; a publisher that dropped out of the solution is stopped."""
        last = self._last_config.setdefault(meeting, {})
        desired = {
            pub: {res: entry.bitrate_kbps for res, entry in entries.items()}
            for pub, entries in solution.policies.items()
        }
        for pub in last:
            desired.setdefault(pub, {})
        index = len(self.decision_s)
        for pub in sorted(desired):
            config = desired[pub]
            if last.get(pub) == config:
                continue
            entries = tuple(
                TmmbrEntry(
                    ssrc=self._ssrcs.allocate(f"{meeting}/{pub}", res),
                    bitrate_bps=config.get(res, 0) * 1000,
                )
                for res in WIRE_RESOLUTIONS
            )
            self._request_id += 1
            request = GsoTmmbr(CONTROLLER_SSRC, self._request_id, entries)
            data = request.to_app_packet().serialize()
            last[pub] = config
            self.pushes.append(Push(index, meeting, pub, config, data))

    def ssrc_of(self, meeting: str, publisher: str, res: Resolution) -> Optional[int]:
        return self._ssrcs.ssrc_of(f"{meeting}/{publisher}", res)


# --------------------------------------------------------------------- #
# One round
# --------------------------------------------------------------------- #


@dataclass
class Round:
    """What one set-up plus one timed replay produced.  ``setup_s`` and
    ``wall_s`` are at nominal host speed (see :class:`HostSpeed`)."""

    inputs: workloads.Inputs
    cluster: ControllerCluster
    plane: IngressPlane
    backend: BenchBackend
    setup_s: float
    wall_s: float = 0.0
    #: The timed region as the clock saw it, reference slices included.
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    obs_events: int = 0
    obs_digest: str = ""
    error: str = ""
    #: ``process_counters()`` spent inside the timed region.
    process: Dict[str, int] = field(default_factory=dict)


def _warm_up(world) -> None:
    """One solve per meeting on a throwaway cluster: lazy imports, numpy
    workspaces and allocator pools settle before anything is timed."""
    with ControllerCluster(ClusterConfig()) as cluster:
        for meeting_id in world.meeting_ids:
            cluster.solve_request(meeting_id, world.current_problem(meeting_id), 0.0)


def _obs_context(stack: contextlib.ExitStack):
    from repro.obs.events import EventLog, record_events
    from repro.obs.registry import enabled_registry

    stack.enter_context(enabled_registry())
    return stack.enter_context(record_events(EventLog()))


def run_round(spec: workloads.WorkloadSpec, seed: int, obs: bool, tracer=None) -> Round:
    """Set up and replay once; with a ``tracer`` its probes are installed
    for the timed region only."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    with contextlib.ExitStack() as stack:
        host = HostSpeed()  # set-up has no events to tick on: sample between its steps
        t0 = time.perf_counter()
        host.burst()
        inputs = workloads.generate(spec, seed)
        host.burst()
        _warm_up(inputs.world)
        reset_process_caches()
        host.burst()
        log = _obs_context(stack) if obs else None
        cluster = stack.enter_context(ControllerCluster(ClusterConfig()))
        for meeting_id in inputs.world.meeting_ids:
            cluster.register(meeting_id)
        backend = BenchBackend(cluster, inputs.world)
        plane = IngressPlane(SimRuntime(), backend, IngressConfig())
        host.burst()
        setup_s = host.scaled(t0, time.perf_counter())
        result = Round(inputs, cluster, plane, backend, setup_s=setup_s)
        if tracer is not None:
            tracer.install({"plane": plane, "backend": backend, "cluster": cluster})
            stack.callback(tracer.uninstall)
        gc.collect()
        before = process_counters()
        cpu0 = time.process_time()
        t1 = time.perf_counter()
        try:
            with span(spans.ROOT):
                plane.run_stream(inputs.stream, duration_s=spec.duration_s)
        except Exception as exc:  # a task error fails the whole round
            result.error = f"{type(exc).__name__}: {exc}"
        if log is not None and not result.error:
            from repro.obs.tracing import assemble_trees

            with span(spans.ASSEMBLE):
                trees = assemble_trees(log.events)
                result.obs_digest = log.digest() + trees.digest()
            result.obs_events = log.emitted
        t2 = time.perf_counter()
        result.raw_wall_s = t2 - t1
        result.cpu_s = time.process_time() - cpu0
        result.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.process = {k: v - before[k] for k, v in process_counters().items()}
        result.wall_s = backend.host.scaled(t1, t2)
    return result


# --------------------------------------------------------------------- #
# Checks (outside the timed region)
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    """The checked result of a round, small enough to keep; the round's
    own objects are dropped, so a run holds one round in memory."""

    setup_s: float
    wall_s: float
    raw_wall_s: float
    slowdown: float
    cpu_s: float
    check_s: float
    peak_rss_mib: float
    events: int
    #: Milliseconds of every ``decide`` call at nominal host speed, sorted.
    decision_ms: List[float]
    virtual_latency_p95_s: float
    inputs_digest: str
    decisions_digest: str
    decision_digests: List[str]
    obs_digest: str
    #: Counts that must repeat exactly on identical inputs.
    counts: Dict[str, int]
    attempted: int
    failed: int
    problems: List[str]


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def process_counters() -> Dict[str, int]:
    """The process-wide MCKP counters (cumulative; callers difference
    them), each absent once its helper is gone."""
    out: Dict[str, int] = {}
    stats = optional_attr("repro.core.mckp", "kernel_stats")
    if stats is not None:
        snap = stats().snapshot()
        out["dp_solves"] = sum(snap["solves"].values())
        out["batched_solves"] = snap["batched_instances"]
    cache = optional_attr("repro.core.engine", "default_mckp_cache")
    if cache is not None:
        snap = cache().snapshot()
        out["mckp_hits"] = snap["hits"]
        out["mckp_misses"] = snap["misses"]
    return out


def _counts(r: Round) -> Dict[str, int]:
    stats = r.plane.stats
    cache = r.cluster.stats().get("cache") or {}
    return {
        "offered": stats.offered,
        "decisions": stats.decisions,
        "coalesced": stats.coalesced,
        "evicted": stats.evicted,
        "shed": stats.shed,
        "idle_refreshes": stats.idle_refreshes,
        "max_mailbox_depth": stats.max_mailbox_depth,
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "tmmbr_packets": len(r.backend.pushes),
        "tmmbr_bytes": sum(len(p.data) for p in r.backend.pushes),
        "semb_decoded": r.backend.semb_decoded,
        "mutations": r.inputs.world.mutations,
        "obs_events": r.obs_events,
    }


def check_round(r: Round, first: Optional[Outcome]) -> Outcome:
    """Judge one round.  A run's first round gets the full gate (every
    decision against the invariants, every TMMBR packet re-parsed, every
    50th decision re-solved from scratch); later rounds replay the same
    inputs and must reproduce the first exactly."""
    t0 = time.perf_counter()
    decisions = r.plane.decisions
    problems: List[str] = []
    bad = {i for i, d in enumerate(decisions) if d.source in FAILED_SOURCES}
    if r.error:
        problems.append(f"task error: {r.error}")
    if bad:
        problems.append(f"{len(bad)} decision(s) served a fallback or were shed")
    if len(r.backend.decision_s) != len(decisions):
        problems.append("decide() calls and committed decisions differ")
    lo = r.inputs.semb_bps_total
    hi = lo + (lo >> 17) + r.inputs.semb_packets
    if r.backend.semb_decoded != r.inputs.semb_packets or not lo <= r.backend.semb_bps_total <= hi:
        problems.append("SEMB decode does not match what the generator encoded")
    digests = [d.digest for d in decisions]
    h = hashlib.sha256()
    for d in decisions:
        h.update(
            f"{d.meeting}|{d.decided_at_s:.6f}|{d.source}|{d.trigger}|{d.batch}|{d.digest}\n".encode()
        )
    counts = _counts(r)
    if first is None:
        bad |= _full_gate(r, problems)
    else:
        if h.hexdigest() != first.decisions_digest:
            problems.append("decisions differ from the run's first round")
            bad.update(
                i for i, (a, b) in enumerate(zip(digests, first.decision_digests)) if a != b
            )
            bad.update(range(len(first.decision_digests), len(digests)))
        if counts != first.counts:
            problems.append("exact counts differ from the run's first round")
        if r.obs_digest != first.obs_digest:
            problems.append("event-log or trace digest differs from the first round")
    attempted = max(1, len(decisions))
    failed = attempted if r.error else len(bad) or min(1, len(problems))
    return Outcome(
        setup_s=r.setup_s,
        wall_s=r.wall_s,
        raw_wall_s=r.raw_wall_s,
        slowdown=r.backend.host.slowdown,
        cpu_s=r.cpu_s,
        check_s=time.perf_counter() - t0,
        peak_rss_mib=r.peak_rss_mib,
        events=len(r.inputs.stream),
        decision_ms=sorted(
            1e3 * s / r.backend.host.slowdown_at(at) for at, s in r.backend.decision_s
        ),
        virtual_latency_p95_s=r.plane.latency_percentile_s(0.95),
        inputs_digest=r.inputs.digest,
        decisions_digest=h.hexdigest(),
        decision_digests=digests,
        obs_digest=r.obs_digest,
        counts=counts,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


def _within_mantissa(want_bps: int, got_bps: int) -> bool:
    """RFC 5104 MxTBR: a 17-bit mantissa rounded up, never down; zero
    (stop) is exact."""
    if want_bps == 0 or got_bps == 0:
        return want_bps == got_bps
    return want_bps <= got_bps <= want_bps + (want_bps >> 16) + 1


def _parse_push(push: Push, backend: BenchBackend) -> Optional[Dict[Resolution, int]]:
    """The configuration a publisher decodes from one packet, ``None``
    when it is not what was pushed."""
    try:
        request = GsoTmmbr.from_app_packet(AppPacket.parse(push.data))
    except ValueError:
        return None
    if len(request.entries) != len(WIRE_RESOLUTIONS):
        return None
    got = {}
    for res, entry in zip(WIRE_RESOLUTIONS, request.entries):
        want_kbps = push.config.get(res, 0)
        if entry.ssrc != backend.ssrc_of(push.meeting, push.publisher, res):
            return None
        if not _within_mantissa(want_kbps * 1000, entry.bitrate_bps):
            return None
        if not entry.disables_stream:
            got[res] = want_kbps
    return got


def _full_gate(r: Round, problems: List[str]) -> set:
    bad = set()
    checker = InvariantChecker()
    oracle = GsoSolver(r.cluster.config.solver)
    stale = mismatched = 0
    # Publishers' wire state, rebuilt from the packets alone.
    wire: Dict[Tuple[str, str], Dict[Resolution, int]] = {}
    pushes = iter(r.backend.pushes)
    push = next(pushes, None)
    for i, d in enumerate(r.plane.decisions):
        if not checker.check_solution(d.meeting, d.payload, d.solution, d.decided_at_s):
            bad.add(i)
        if i % ORACLE_EVERY == 0 and solution_digest(oracle.solve(d.payload)) != d.digest:
            bad.add(i)
            stale += 1
        while push is not None and push.decision <= i:
            got = _parse_push(push, r.backend)
            if got is None:
                bad.add(push.decision)
                mismatched += 1
            wire[(push.meeting, push.publisher)] = got or {}
            push = next(pushes, None)
        for pub, entries in d.solution.policies.items():
            want = {res: e.bitrate_kbps for res, e in entries.items()}
            if wire.get((d.meeting, pub), {}) != want:
                bad.add(i)
    if checker.violations:
        problems.append(f"{len(checker.violations)} invariant violation(s)")
    if mismatched:
        problems.append(f"{mismatched} TMMBR packet(s) do not parse back to the pushed config")
    if stale:
        problems.append(f"{stale} sampled decision(s) differ from a fresh solve")
    if bad and not problems:
        problems.append(f"{len(bad)} decision(s) left a publisher's wire state stale")
    return bad
