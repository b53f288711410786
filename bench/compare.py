#!/usr/bin/env python3
"""Compare two ``bench/run.py`` suite results, A (the parent) and B.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric):

* ``regressed`` - B's median is worse than A's by more than the metric's bound;
* ``unresolved`` - not regressed, but the inter-quartile spread of A's or
  B's runs exceeds the bound, so "unchanged" cannot be told from noise
  (unless every run of B beats every run of A: ``better in every run``);
* ``within bound`` otherwise.

Digests, exact counts and the virtual-time latency must be equal.  Every
ratio is printed with its base.  Exits 1 on any regression or inequality.
"""

from __future__ import annotations

import json
import sys

EXACT = ("inputs_digest", "decisions_digest", "virtual_latency_p95_s", "counts")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def judge(a: dict, b: dict) -> str:
    bound, better = a["bound"], a["better"]
    if worse_by(a["median"], b["median"], better) > bound:
        return "regressed"
    if better == "lower":
        every_run_better = max(b["values"]) < min(a["values"])
    else:
        every_run_better = min(b["values"]) > max(a["values"])
    if every_run_better:
        return "better in every run"
    spread = max((e["q3"] - e["q1"]) / e["median"] for e in (a, b))
    return "unresolved" if spread > bound else "within bound"


def compare(a: dict, b: dict) -> int:
    if a.get("schema") != b.get("schema"):
        print(f"schemas differ: {a.get('schema')} vs {b.get('schema')}")
        return 1
    failures = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from B")
            failures += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"== {name}")
        for metric, ea in wa["end_to_end"].items():
            eb = wb["end_to_end"].get(metric)
            if eb is None:
                print(f"  {metric:18s} missing from B")
                failures += 1
                continue
            verdict = judge(ea, eb)
            failures += verdict == "regressed"
            print(
                f"  {metric:18s} A {ea['median']:.5g}  B {eb['median']:.5g} {ea['unit']}  "
                f"B/A {eb['median'] / ea['median']:.3f} (base A = {ea['median']:.5g})  "
                f"IQR/median A {(ea['q3'] - ea['q1']) / ea['median']:.1%} "
                f"B {(eb['q3'] - eb['q1']) / eb['median']:.1%}  "
                f"bound {ea['bound']:.0%} ({ea['better']} is better)  -> {verdict}"
            )
        for key in EXACT:
            equal = wa["exact"][key] == wb["exact"][key]
            failures += not equal
            print(f"  {key:22s} {'equal' if equal else 'DIFFERS'}")
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                failures += 1
                print(f"  {side}: {w['failed']} of {w['attempted']} decisions failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main())
