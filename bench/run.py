#!/usr/bin/env python3
"""The repo's end-to-end benchmark: wall-clock runs of the real control path.

One measured run (what ``BENCHMARK.json``'s command invokes)::

    python3 bench/run.py --workload fleet_mix --seed 1 --seconds 15 --trace 0

prints every end-to-end metric by name with its unit (``--trace 1``: every
per-layer metric, from traced rounds) and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  It exits
non-zero when any output is wrong.

Without ``--trace`` it runs the whole suite: every workload ``--runs``
times in fresh subprocesses, interleaved round-robin, plus one traced run
each; medians, quartiles and the exact digests go to ``bench/out/
result.json`` (the file ``bench/compare.py`` compares).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
OUT = BENCH / "out"

# The checkout's own source, not an installed copy, is what gets measured.
sys.path.insert(0, str(REPO / "src"))
_import_started = time.perf_counter()
import harness  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: What importing ``repro`` and the benchmark cost (``bench.import_s``).
IMPORT_S = time.perf_counter() - _import_started
SCHEMA = "repro.bench/v1"
#: A run always makes this many rounds, so set-up time is a median too.
MIN_ROUNDS = 3
#: Stop starting rounds here, well inside the 180 s a run may take.
HARD_STOP_S = 120.0
DETAIL_PREFIX = "detail "


def load_contract() -> dict:
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


# --------------------------------------------------------------------- #
# One measured run
# --------------------------------------------------------------------- #


def measure(spec, seed: int, seconds: float, trace: bool):
    """Run rounds until ``seconds`` of timed replay have accumulated.

    Untraced, every round is the workload as specified.  Traced, rounds
    cycle through: traced; untraced (their ratio is the tracing
    overhead); and, for a workload under obs, untraced with obs off
    (the obs overhead on byte-identical inputs).
    """
    variants = [(False, spec.obs)]
    if trace:
        variants.insert(0, (True, spec.obs))
        if spec.obs:
            variants.append((False, False))
    started = time.perf_counter()
    outcomes = {v: [] for v in variants}
    #: The first checked round per obs setting; later ones must match it.
    reference = {}
    traced_metrics = []
    timed = 0.0
    rounds = 0
    while (timed < seconds or rounds < MIN_ROUNDS or rounds % len(variants)) and (
        time.perf_counter() - started < HARD_STOP_S or not rounds
    ):
        variant = variants[rounds % len(variants)]
        traced, obs = variant
        tracer = spans.Tracer() if traced else None
        r = harness.run_round(spec, seed, obs, tracer)
        o = harness.check_round(r, reference.get(obs))
        reference.setdefault(obs, o)
        if traced:
            rows = layers.cost_rows(spec.name, r, tracer)
            traced_metrics.append(layers.layer_metrics(r, o, tracer, rows))
            if len(traced_metrics) == 1:
                OUT.mkdir(exist_ok=True)
                tracer.write(OUT / f"trace-{spec.name}.json", spec.name)
                layers.write_cost_rows(OUT / f"cost_fit-{spec.name}.csv", rows)
        outcomes[variant].append(o)
        timed += o.raw_wall_s
        rounds += 1
        del r, tracer
    return outcomes, traced_metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(outcomes) -> dict:
    return {
        "events_per_s": _median(o.events / o.wall_s for o in outcomes),
        "decision_ms_p50": _median(harness.percentile(o.decision_ms, 0.50) for o in outcomes),
        "decision_ms_p95": _median(harness.percentile(o.decision_ms, 0.95) for o in outcomes),
        # Read after the first replay, so it does not grow with the
        # number of rounds the host's speed happened to allow.
        "peak_rss_mb": outcomes[0].peak_rss_mib,
        "setup_s": _median(o.setup_s for o in outcomes),
    }


def per_layer(spec, outcomes, traced_metrics) -> dict:
    metrics = {
        name: _median(m[name] for m in traced_metrics) for name in traced_metrics[0]
    }
    wall = {v: _median(o.wall_s for o in os_) for v, os_ in outcomes.items()}
    metrics["trace.overhead_share"] = 1.0 - wall[(False, spec.obs)] / wall[(True, spec.obs)]
    metrics["obs.overhead_share"] = (
        1.0 - wall[(False, False)] / wall[(False, True)] if spec.obs else 0.0
    )
    # The full gate runs once, on the first traced round.
    metrics["bench.check_s"] = outcomes[(True, spec.obs)][0].check_s
    metrics["bench.import_s"] = IMPORT_S
    metrics["bench.rounds"] = sum(len(os_) for os_ in outcomes.values())
    return metrics


def single_run(args) -> int:
    contract = load_contract()
    spec = workloads.spec_by_name(args.workload)
    outcomes, traced_metrics = measure(spec, args.seed, args.seconds, bool(args.trace))
    everything = [o for os_ in outcomes.values() for o in os_]
    if args.trace:
        values = per_layer(spec, outcomes, traced_metrics)
        declared = contract["per_layer"]
    else:
        values = end_to_end(everything)
        declared = contract["end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            # The result line carries numbers only; the warning above
            # and the detail line say which ones were not measured.
            print(f"warning: {m['name']} was not measured; reported as 0", file=sys.stderr)
        metrics[m["name"]] = {"value": value or 0.0, "unit": m["unit"]}
        print(f"{m['name']:32s} {'null' if value is None else format(value, '.6g'):>14s} {m['unit']}")
    problems = sorted({p for o in everything for p in o.problems})
    digests = {o.decisions_digest for o in everything}
    if len(digests) > 1:
        problems.append("decisions differ between traced, untraced or obs-off rounds")
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    first = everything[0]
    attempted = sum(o.attempted for o in everything)
    failed = sum(o.failed for o in everything)
    correct = not problems and failed == 0
    detail = {
        "workload": spec.name,
        "seed": args.seed,
        "rounds": len(everything),
        "decisions_per_round": first.counts["decisions"],
        "events_per_round": first.events,
        "inputs_digest": first.inputs_digest,
        "decisions_digest": first.decisions_digest,
        "virtual_latency_p95_s": first.virtual_latency_p95_s,
        "host_slowdown": _median(o.slowdown for o in everything),
        "raw_events_per_s": _median(o.events / o.raw_wall_s for o in everything),
        "counts": first.counts,
        "failed_share": failed / attempted,
        "unmeasured": sorted(m["name"] for m in declared if values.get(m["name"]) is None),
        "problems": problems,
    }
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


# --------------------------------------------------------------------- #
# The suite
# --------------------------------------------------------------------- #


def sub_run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=REPO,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: run printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return result, detail


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def suite(args) -> int:
    contract = load_contract()
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    seconds = args.seconds or contract["run_seconds"]
    report = {"schema": SCHEMA, "seed": args.seed, "seconds": seconds, "workloads": {}}
    runs = {name: [] for name in names}
    wrong = []
    for k in range(args.runs):
        for name in names:  # round-robin, so host drift hits every workload alike
            result, detail = sub_run(name, args.seed, seconds, 0)
            runs[name].append((result, detail))
            print(f"run {k + 1}/{args.runs} {name}: "
                  + " ".join(f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()),
                  flush=True)
    for name in names:
        entry = {"end_to_end": {}, "per_layer": {}, "exact": {}}
        for m in contract["end_to_end"] if runs[name] else ():
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs[name]]
            q1, q3 = quartiles(values)
            entry["end_to_end"][m["name"]] = {
                **{k: m[k] for k in ("unit", "better", "bound")},
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "n": len(values), "values": values,
            }
        details = [d for _, d in runs[name]]
        if args.traced:
            result, detail = sub_run(name, args.seed, seconds, 1)
            details.append(detail)
            unmeasured = set(detail["unmeasured"])
            entry["per_layer"] = {
                m: {"value": None if m in unmeasured else v["value"], "unit": v["unit"]}
                for m, v in result["metrics"].items()
            }
            runs[name].append((result, detail))
        exact_keys = ("inputs_digest", "decisions_digest", "virtual_latency_p95_s", "counts")
        entry["exact"] = {k: details[0][k] for k in exact_keys}
        entry["attempted"] = sum(r["attempted"] for r, _ in runs[name])
        entry["failed"] = sum(r["failed"] for r, _ in runs[name])
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        if any(not r["correct"] for r, _ in runs[name]):
            wrong.append(f"{name}: a run failed its correctness gate")
        if any({k: d[k] for k in exact_keys} != entry["exact"] for d in details):
            wrong.append(f"{name}: runs of one seed disagree on digests or exact counts")
        report["workloads"][name] = entry
    # Workloads that declare the same inputs must decide identically.
    by_inputs = {}
    for name in names:
        by_inputs.setdefault(workloads.spec_by_name(name).inputs, []).append(name)
    for group in by_inputs.values():
        for key in ("inputs_digest", "decisions_digest"):
            if len({report["workloads"][n]["exact"][key] for n in group}) > 1:
                wrong.append(f"{', '.join(group)}: {key} differs on identical inputs")
    if {"fleet_mix", "fleet_mix_obs"} <= set(names) and args.runs:
        base = report["workloads"]["fleet_mix"]["end_to_end"]["events_per_s"]["median"]
        obs = report["workloads"]["fleet_mix_obs"]["end_to_end"]["events_per_s"]["median"]
        report["obs_overhead_share"] = 1.0 - obs / base
    print_report(report)
    OUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT / "result.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if args.traced:
        with open(OUT / "cost_fit.csv", "w") as merged:
            for i, name in enumerate(names):
                lines = (OUT / f"cost_fit-{name}.csv").read_text().splitlines(keepends=True)
                merged.writelines(lines[1 if i else 0:])
    print(f"wrote {out}")
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    return 1 if wrong else 0


def print_report(report: dict) -> None:
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  (failed_share {entry['failed_share']:.4g}, "
              f"inputs {entry['exact']['inputs_digest'][:12]}, "
              f"decisions {entry['exact']['decisions_digest'][:12]})")
        for m, e in entry["end_to_end"].items():
            print(f"  {m:24s} {e['median']:12.5g} {e['unit']:9s} "
                  f"q1 {e['q1']:.5g}  q3 {e['q3']:.5g}  n {e['n']}  "
                  f"({e['better']} is better, bound {e['bound']:.0%})")
        for m, e in entry["per_layer"].items():
            value = "null" if e["value"] is None else format(e["value"], ".5g")
            print(f"  {m:32s} {value:>12s} {e['unit']}")
    if "obs_overhead_share" in report:
        print(f"\nobs overhead (1 - fleet_mix_obs / fleet_mix events_per_s): "
              f"{report['obs_overhead_share']:.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, suite mode only)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="make one measured run; 1 reports the per-layer metrics")
    parser.add_argument("--runs", type=int, default=5, help="suite: untraced runs per workload")
    parser.add_argument("--traced", action=argparse.BooleanOptionalAction, default=True,
                        help="suite: also make one traced run per workload")
    parser.add_argument("--out", help="suite: result file (default bench/out/result.json)")
    args = parser.parse_args(argv)
    if args.trace is None:
        if args.runs < 1 and not args.traced:
            parser.error("nothing to run: --runs 0 with --no-traced")
        return suite(args)
    if not args.workload or not args.seconds:
        parser.error("--trace needs --workload and --seconds")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
