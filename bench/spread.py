#!/usr/bin/env python3
"""How steady is the benchmark?  Ten runs per workload, each on another
seed; per end-to-end metric the inter-quartile distance as a share of the
median, next to the metric's bound.  A benchmark is steady enough to gate
on when every spread (``setup_s`` aside) is below a third of its bound.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="also write every value as JSON")
    args = parser.parse_args(argv)
    contract = run.load_contract()
    names = args.workload or [w["name"] for w in contract["workloads"]]
    values = {name: {m["name"]: [] for m in contract["end_to_end"]} for name in names}
    for k in range(args.runs):
        for name in names:
            result, _ = run.sub_run(name, args.first_seed + k, contract["run_seconds"], 0)
            if not result["correct"]:
                print(f"WRONG: {name} seed {args.first_seed + k}", file=sys.stderr)
                return 1
            for metric, v in result["metrics"].items():
                values[name][metric].append(v["value"])
        print(f"seed {args.first_seed + k} done", file=sys.stderr, flush=True)
    worst = 0.0
    for name in names:
        print(f"== {name}")
        for m in contract["end_to_end"]:
            vs = values[name][m["name"]]
            q1, median, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / median
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:18s} median {median:10.5g} {m['unit']:9s} "
                  f"spread {spread:6.2%} of bound {m['bound']:.0%}")
    print(f"largest spread is {worst:.2f} of its bound (steady below 0.33)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(values, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
