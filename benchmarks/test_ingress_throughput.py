"""Ingress-throughput gate: sustained events/sec with bounded latency.

Drives a 10^5-user SEMB stream (``repro.deploy.ingress_stream``) through
one event-driven ingress plane — ~20k mailboxes and worker coroutines,
backpressure windows, a bounded virtual executor — and gates two things:

* **unconditionally**: the canonical half of the result is
  byte-deterministic across a double run, and virtual p95 decision
  latency stays <= 0.25 s (the interactive envelope the plane paces
  dispatch with);
* **against the committed baseline** (``benchmarks/baselines/
  BENCH_PR8.json``): dispatch throughput in events per wall second may
  not regress more than 15 % after normalizing by a fixed
  pure-Python calibration workload, so a slower CI machine is judged
  fairly.  Outside CI the comparison only
  prints; ``REPRO_PERF_GATE=1`` arms the hard failure.

Results are written to ``benchmarks/out/BENCH_PR8.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import List

from _harness import OUT_DIR, emit

from repro.deploy.ingress_stream import canonical_digest, run_fleet_ingress

BENCH_SCHEMA = "repro.bench_pr8/v1"
BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_PR8.json"
RESULT_PATH = OUT_DIR / "BENCH_PR8.json"

#: The committed operating point (regenerate the baseline on change).
SEED = 8
USERS = 100_000

#: Virtual p95 decision latency ceiling — asserted unconditionally (the
#: latency is simulated time, so machine speed cannot excuse it).
LATENCY_SLO_S = 0.25

#: Maximum tolerated relative throughput drop vs the committed baseline.
REGRESSION_BUDGET = 0.15

#: Calibration ratio clamp.  Asymmetric on purpose: a slower machine
#: (ratio > 1) lowers the throughput floor fairly, but a calibration
#: that reads *faster* than the baseline never raises it — calibration
#: jitter on a shared runner must not tighten a wall-clock gate.
CALIBRATION_CLAMP = (1.0, 4.0)


def _calibrate(rounds: int = 5, iterations: int = 200_000) -> float:
    """Best-of wall time of a fixed pure-Python workload."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for k in range(iterations):
            acc += k * k % 7
        best = min(best, time.perf_counter() - start)
    return best


def _compare(result: dict, baseline: dict) -> List[str]:
    """Gate comparisons; returns a list of failure descriptions."""
    failures: List[str] = []
    lo, hi = CALIBRATION_CLAMP
    ratio = result["calibration_s"] / baseline["calibration_s"]
    ratio = min(max(ratio, lo), hi)

    base_eps = baseline["wall"]["events_per_sec"]
    floor = base_eps / ratio * (1.0 - REGRESSION_BUDGET)
    current = result["wall"]["events_per_sec"]
    if current < floor:
        failures.append(
            f"events_per_sec {current:.0f} < floor {floor:.0f} "
            f"(baseline {base_eps:.0f}, calibration ratio {ratio:.2f})"
        )
    return failures


#: Wall-clock repetitions; the gate judges the fastest (least-noisy) one.
ROUNDS = 3


def test_ingress_throughput():
    calibration_s = _calibrate()
    runs = [run_fleet_ingress(SEED, users=USERS) for _ in range(ROUNDS)]
    first = runs[0]
    for replay in runs[1:]:
        assert canonical_digest(first) == canonical_digest(replay), (
            "fleet ingress canonical result is not deterministic "
            "across runs"
        )
    # Report the fastest run (every canonical half agrees byte-for-byte).
    wall = min((r["wall"] for r in runs), key=lambda w: w["elapsed_s"])
    canonical = first["canonical"]
    result = {
        "schema": BENCH_SCHEMA,
        "calibration_s": round(calibration_s, 6),
        "canonical_digest": canonical_digest(first),
        "canonical": canonical,
        "wall": {
            "elapsed_s": round(wall["elapsed_s"], 4),
            "events_per_sec": round(wall["events_per_sec"], 1),
            "decisions_per_sec": round(wall["decisions_per_sec"], 1),
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    RESULT_PATH.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )

    latency = canonical["latency"]
    lines = [
        f"fleet ingress: {canonical['users']} users / "
        f"{canonical['meetings']} meetings, {canonical['events']} SEMB "
        f"events over {canonical['config']['duration_s']} s virtual "
        f"(seed {canonical['seed']})",
        f"calibration        : {calibration_s * 1000:8.3f} ms "
        "(fixed pure-Python workload, best of 5)",
        f"dispatch           : {result['wall']['events_per_sec']:10.1f} "
        f"events/s  ({result['wall']['decisions_per_sec']:.1f} "
        f"decisions/s, wall {result['wall']['elapsed_s']:.3f} s)",
        f"decisions          : {canonical['decisions']} "
        f"(coalesced {canonical['coalesced']}, shed {canonical['shed']}, "
        f"evicted {canonical['evicted']}, "
        f"max depth {canonical['max_mailbox_depth']})",
        f"virtual latency    : p50={latency['p50_s']:.4f} s  "
        f"p95={latency['p95_s']:.4f} s  max={latency['max_s']:.4f} s  "
        f"(SLO p95 <= {LATENCY_SLO_S} s)",
        f"wrote {RESULT_PATH.relative_to(OUT_DIR.parent)}",
    ]

    if not BASELINE_PATH.exists():
        lines.append("no committed baseline — comparison skipped")
        emit("ingress_throughput", lines)
        assert latency["p95_s"] <= LATENCY_SLO_S, (
            f"virtual p95 decision latency {latency['p95_s']} s exceeds "
            f"the {LATENCY_SLO_S} s envelope"
        )
        return

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = _compare(result, baseline)
    if result["canonical_digest"] != baseline["canonical_digest"]:
        lines.append(
            "NOTE: canonical digest differs from the committed baseline "
            "— the model is deterministic, so regenerate "
            "benchmarks/baselines/BENCH_PR8.json if the stream or plane "
            "changed intentionally"
        )
    lines.append(
        "gate: " + ("FAIL — " + "; ".join(failures) if failures else "PASS")
    )
    emit("ingress_throughput", lines)

    assert latency["p95_s"] <= LATENCY_SLO_S, (
        f"virtual p95 decision latency {latency['p95_s']} s exceeds "
        f"the {LATENCY_SLO_S} s envelope"
    )
    if failures and os.environ.get("REPRO_PERF_GATE") == "1":
        raise AssertionError(
            "ingress throughput gate failed: " + "; ".join(failures)
        )
