"""Observability overhead: solver wall-clock with instrumentation off/on.

Budget (docs/OBSERVABILITY.md): the disabled path must be free (the
no-op registry costs only guard checks), and the enabled path — metrics
registry + spans + full KMR tracing, and for the cluster workload the
structured event log + time-series sampling on top — must stay within
~5 % of the uninstrumented run on a realistic meeting.

Writes ``benchmarks/out/obs_overhead.txt`` and
``benchmarks/out/obs_event_overhead.txt``.
"""

from __future__ import annotations

import time

from _harness import emit
from _problems import mesh_meeting

from repro.cluster import ClusterConfig, ControllerCluster
from repro.core.solver import GsoSolver, SolverConfig
from repro.obs import (
    TimeSeriesStore,
    collect_traces,
    enabled_registry,
    record_events,
    record_timeseries,
)
from repro.obs.registry import NullRegistry, get_registry, set_registry

#: Workload: a 20-participant full mesh with a 9-rung ladder, solved at
#: the production granularity — big enough that one solve is ~10 ms, so
#: per-call instrumentation costs are measured against real work.
N_CLIENTS = 20
LEVELS = 9
SOLVES_PER_ROUND = 10
ROUNDS = 8


def _one_round(run_once) -> float:
    start = time.perf_counter()
    for _ in range(SOLVES_PER_ROUND):
        run_once()
    return (time.perf_counter() - start) / SOLVES_PER_ROUND


def test_obs_overhead():
    problem = mesh_meeting(N_CLIENTS, LEVELS, seed=7)
    solver = GsoSolver(SolverConfig(granularity_kbps=10))
    solve = lambda: solver.solve(problem)  # noqa: E731
    solve()  # warmup: numpy + allocator caches

    # Off/on rounds are interleaved so clock-speed drift and background
    # load hit both sides equally; best-of damps scheduler noise.
    previous = get_registry()
    disabled_s = enabled_s = float("inf")
    try:
        for _ in range(ROUNDS):
            set_registry(NullRegistry())
            disabled_s = min(disabled_s, _one_round(solve))
            with enabled_registry(), collect_traces():
                enabled_s = min(enabled_s, _one_round(solve))
    finally:
        set_registry(previous)

    overhead = (enabled_s - disabled_s) / disabled_s
    lines = [
        f"workload: {N_CLIENTS}-client mesh, {LEVELS} bitrate levels, "
        f"granularity 10 kbps",
        f"rounds: best of {ROUNDS} x {SOLVES_PER_ROUND} solves",
        "",
        f"instrumentation off : {disabled_s * 1000:8.3f} ms/solve",
        f"instrumentation on  : {enabled_s * 1000:8.3f} ms/solve "
        "(registry + spans + KMR trace)",
        f"enabled overhead    : {overhead * 100:+8.2f} %  (budget: <= 5 %)",
        "",
        "disabled-path cost is guard checks only (`registry.enabled` +"
        " no-op span objects); it is the shipping default.",
    ]
    emit("obs_overhead", lines)
    # The committed artifact documents the ~5 % budget; the assertion is
    # looser so a loaded CI machine does not flake the suite.
    assert overhead < 0.25, f"obs overhead {overhead:.1%} exceeds bound"


# --------------------------------------------------------------------- #
# Event-path overhead (cluster workload)
# --------------------------------------------------------------------- #

EVENT_MEETINGS = 6
EVENT_TICKS = 8
EVENT_ROUNDS = 6


def _cluster_round(telemetry: bool) -> float:
    """One timed submit/tick workload through a fresh cluster.

    ``telemetry=True`` enables the full PR-4 pipeline — registry, event
    log, and per-tick time-series sampling — exactly as the chaos runner
    wires it; ``False`` is the shipping default (everything off).
    """
    cluster = ControllerCluster(
        ClusterConfig(shards=2, cache_capacity=512)
    )
    try:
        # The global picture changes every tick (publishers' bandwidth
        # shifts), so ticks do real solve work — the overhead is judged
        # against a production-shaped workload, not pure cache hits.
        meetings = [f"ov-{k}" for k in range(EVENT_MEETINGS)]
        problems = {
            (k, tick): mesh_meeting(8, 6, seed=100 * tick + k)
            for k in range(EVENT_MEETINGS)
            for tick in range(EVENT_TICKS)
        }
        for meeting_id in meetings:
            cluster.register(meeting_id)

        def drive() -> float:
            store = TimeSeriesStore()
            start = time.perf_counter()
            for tick in range(EVENT_TICKS):
                now = float(tick)
                for k, meeting_id in enumerate(meetings):
                    cluster.submit(meeting_id, problems[(k, tick)], now)
                cluster.tick(now)
                if telemetry:
                    store.sample_registry(get_registry(), now)
            return time.perf_counter() - start

        if telemetry:
            with enabled_registry(), record_events(), record_timeseries():
                return drive()
        return drive()
    finally:
        cluster.close()


def test_event_overhead():
    """The event log + store must cost <= budget on the cluster path."""
    previous = get_registry()
    disabled_s = enabled_s = float("inf")
    try:
        _cluster_round(False)  # warmup
        for _ in range(EVENT_ROUNDS):
            set_registry(NullRegistry())
            disabled_s = min(disabled_s, _cluster_round(False))
            enabled_s = min(enabled_s, _cluster_round(True))
    finally:
        set_registry(previous)

    overhead = (enabled_s - disabled_s) / disabled_s
    lines = [
        f"workload: {EVENT_MEETINGS} meetings x {EVENT_TICKS} "
        "submit/tick rounds through a 2-shard cluster",
        f"rounds: best of {EVENT_ROUNDS}",
        "",
        f"telemetry off : {disabled_s * 1000:8.3f} ms/workload",
        f"telemetry on  : {enabled_s * 1000:8.3f} ms/workload "
        "(registry + event log + per-tick store sampling)",
        f"overhead      : {overhead * 100:+8.2f} %  (budget: <= 5 %)",
        "",
        "with no log/store installed the cluster pays one `is None`"
        " check per potential event; that is the shipping default.",
    ]
    emit("obs_event_overhead", lines)
    assert overhead < 0.25, f"event overhead {overhead:.1%} exceeds bound"
