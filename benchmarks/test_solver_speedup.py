"""Incremental solve-engine speedup benchmarks (PR 5).

Two workloads, both byte-equivalence-enforced on every solve:

1. **fig6c_gallery** — one Fig. 6c-style gallery meeting (400
   subscribers x 18 bitrates, tight publisher uplinks forcing a
   multi-iteration KMR run) solved once with ``incremental=False`` and
   once with the engine.  Floor: >= 3x.
2. **fig12_rounds** — the Fig. 12 repeated-round shape: one controller
   round per bandwidth report, where each round changes a single
   subscriber's downlink by one granularity step.  The whole-problem
   fingerprint misses every round; the capacity-profile cache must
   carry the load.  Floor: >= 1.5x.

The cold path (every subscriber on its own downlink, nothing cached) is
the ``webinar_large`` workload of ``bench/``, measured end to end.

Results go to ``benchmarks/out/solver_speedup.txt`` plus
``benchmarks/out/BENCH_PR5.json``; CI compares the speedups against the
committed baseline in ``benchmarks/baselines/`` (hard failure armed by
``REPRO_PERF_GATE=1``, same protocol as the PR4 gate).  The floors are
asserted unconditionally — equivalence and the speedup targets are
correctness criteria, not regression telemetry.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path
from typing import Dict, List

from _harness import OUT_DIR, emit
from _problems import gallery_meeting

from repro.core.constraints import Bandwidth, Problem
from repro.core.engine import default_mckp_cache
from repro.core.solver import GsoSolver, SolverConfig

BENCH_SCHEMA = "repro.bench_pr5/v1"
BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_PR5.json"
RESULT_PATH = OUT_DIR / "BENCH_PR5.json"

#: Hard speedup floors (acceptance criteria, asserted every run).
GALLERY_FLOOR = 3.0
ROUNDS_FLOOR = 1.5

#: Maximum tolerated relative speedup regression vs the baseline.
REGRESSION_BUDGET = 0.15

GRANULARITY = 25


def _solve(problem: Problem, incremental: bool):
    cfg = SolverConfig(
        granularity_kbps=GRANULARITY, incremental=incremental
    )
    start = time.perf_counter()
    solution, stats = GsoSolver(cfg).solve_with_stats(problem)
    return solution, stats, time.perf_counter() - start


def _fig6c_gallery() -> Dict[str, object]:
    """Workload 1: one large multi-iteration gallery solve."""
    make = lambda: gallery_meeting(12, 400, 18, seed=6)
    default_mckp_cache().clear()
    base_sol, base_stats, base_s = _solve(make(), incremental=False)
    engine_sol, engine_stats, engine_s = _solve(make(), incremental=True)
    assert pickle.dumps(engine_sol) == pickle.dumps(base_sol), (
        "engine solution diverged from the incremental=False baseline"
    )
    assert base_stats.iterations == engine_stats.iterations
    return {
        "subscribers": 400,
        "iterations": base_stats.iterations,
        "base_s": round(base_s, 4),
        "engine_s": round(engine_s, 4),
        "speedup": round(base_s / engine_s, 2),
        "deduped": engine_stats.engine.deduped,
        "cache_hits": engine_stats.engine.cache_hits,
        "cache_misses": engine_stats.engine.cache_misses,
        "step1_skipped": engine_stats.engine.step1_skipped,
    }


def _rounds_problems(rounds: int) -> List[Problem]:
    """The Fig. 12 report stream: one single-subscriber downlink delta
    per round (one granularity step, so the subscriber's own MCKP
    instance — and the whole-problem fingerprint — genuinely change)."""
    problems = []
    for r in range(rounds):
        base = gallery_meeting(10, 120, 12, seed=8)
        bandwidth = dict(base.bandwidth)
        touched = f"S{r % 120}"
        old = bandwidth[touched]
        bandwidth[touched] = Bandwidth(
            old.uplink_kbps, old.downlink_kbps + GRANULARITY * (r + 1)
        )
        problems.append(
            Problem(base.feasible_streams, bandwidth, base.subscriptions)
        )
    return problems


def _fig12_rounds() -> Dict[str, object]:
    """Workload 2: repeated controller rounds with small deltas."""
    rounds = 6
    base_s = 0.0
    base_solutions = []
    for problem in _rounds_problems(rounds):
        sol, _, elapsed = _solve(problem, incremental=False)
        base_solutions.append(sol)
        base_s += elapsed

    default_mckp_cache().clear()
    engine_s = 0.0
    hits = misses = 0
    for k, problem in enumerate(_rounds_problems(rounds)):
        sol, stats, elapsed = _solve(problem, incremental=True)
        engine_s += elapsed
        hits += stats.engine.cache_hits
        misses += stats.engine.cache_misses
        assert pickle.dumps(sol) == pickle.dumps(base_solutions[k]), (
            f"engine solution diverged on round {k}"
        )
    return {
        "rounds": rounds,
        "base_s": round(base_s, 4),
        "engine_s": round(engine_s, 4),
        "speedup": round(base_s / engine_s, 2),
        "cache_hits": hits,
        "cache_misses": misses,
    }


def _compare(
    result: dict, baseline: dict, workloads: tuple
) -> List[str]:
    """Baseline comparison; returns failure descriptions."""
    failures: List[str] = []
    for name in workloads:
        base = baseline["workloads"][name]["speedup"]
        floor = base * (1.0 - REGRESSION_BUDGET)
        current = result["workloads"][name]["speedup"]
        if current < floor:
            failures.append(
                f"{name} speedup {current:.2f}x < floor {floor:.2f}x "
                f"(baseline {base:.2f}x)"
            )
    return failures


def test_solver_speedup():
    gallery = _fig6c_gallery()
    rounds = _fig12_rounds()
    result = {
        "schema": BENCH_SCHEMA,
        "granularity_kbps": GRANULARITY,
        "workloads": {"fig6c_gallery": gallery, "fig12_rounds": rounds},
    }
    OUT_DIR.mkdir(exist_ok=True)
    RESULT_PATH.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"fig6c_gallery  : {gallery['base_s']:.3f} s -> "
        f"{gallery['engine_s']:.3f} s  = {gallery['speedup']:.2f}x  "
        f"(floor {GALLERY_FLOOR:.1f}x; {gallery['iterations']} iterations, "
        f"{gallery['deduped']} deduped, {gallery['step1_skipped']} "
        f"dirty-set skips, {gallery['cache_hits']} cache hits)",
        f"fig12_rounds   : {rounds['base_s']:.3f} s -> "
        f"{rounds['engine_s']:.3f} s  = {rounds['speedup']:.2f}x  "
        f"(floor {ROUNDS_FLOOR:.1f}x; {rounds['rounds']} rounds, "
        f"{rounds['cache_hits']} cache hits / "
        f"{rounds['cache_misses']} misses)",
        "equivalence    : every engine solution pickle-identical to the "
        "incremental=False baseline",
        f"wrote {RESULT_PATH.relative_to(OUT_DIR.parent)}",
    ]

    failures: List[str] = []
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        failures = _compare(
            result, baseline, ("fig6c_gallery", "fig12_rounds")
        )
        lines.append(
            "gate: "
            + ("FAIL — " + "; ".join(failures) if failures else "PASS")
        )
    else:
        lines.append("no committed baseline — comparison skipped")
    emit("solver_speedup", lines)
    if failures and os.environ.get("REPRO_PERF_GATE") == "1":
        raise AssertionError(
            "solver speedup gate failed: " + "; ".join(failures)
        )

    assert gallery["speedup"] >= GALLERY_FLOOR, (
        f"fig6c_gallery speedup {gallery['speedup']:.2f}x "
        f"below the {GALLERY_FLOOR:.1f}x floor"
    )
    assert rounds["speedup"] >= ROUNDS_FLOOR, (
        f"fig12_rounds speedup {rounds['speedup']:.2f}x "
        f"below the {ROUNDS_FLOOR:.1f}x floor"
    )
