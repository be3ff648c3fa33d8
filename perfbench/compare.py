#!/usr/bin/env python3
"""Compare two sets of perfbench result files (standard library only).

  python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds the <workload>-seed<n>-trace<t>.json files that
run.py --out wrote, one per run. Runs pair up by seed. For every
workload and metric the comparator prints each side's median and
quartiles over its runs, the pairs the change won, and a verdict:

  improved   the change won at least 9/10 of the pairs (ties count for
             neither) and the medians differ by more than the parent's
             own quartile spread
  no worse   the change's median is not worse than the parent's by more
             than the metric's bound
  worse      it is worse by more than the bound
  unresolved the parent's spread is wider than the bound, unless every
             change run beats every parent run; for per-layer metrics,
             which have no bound, anything short of improved/worse that
             is not an exact tie
  same       per-layer only: identical on every run

An improvement does not count if the change failed more runs.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(dirpath):
    runs = {}
    for path in sorted(glob.glob(os.path.join(dirpath, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if "workload" not in r or "metrics" not in r:
            continue
        runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    return runs


def quart(xs):
    if len(xs) < 2:
        v = xs[0] if xs else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(p, c, better, bound, more_failures):
    """p and c are the parent's and change's per-run values, paired by
    position."""
    sign = 1 if better == "lower" else -1
    pq1, pmed, pq3 = quart(p)
    _, cmed, _ = quart(c)
    spread = pq3 - pq1
    worse_by = sign * (cmed - pmed)  # > 0: the change is worse
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    losses = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    pairs = min(len(p), len(c))
    if pairs and wins >= 0.9 * pairs and -worse_by > spread:
        v = "unresolved" if more_failures else "improved"
    elif bound is None:
        if pairs and losses >= 0.9 * pairs and worse_by > spread:
            v = "worse"
        elif wins == 0 and losses == 0:
            v = "same"
        else:
            v = "unresolved"
    elif pmed and spread / abs(pmed) > bound and not all(sign * (b - a) < 0 for a in p for b in c):
        v = "unresolved"
    elif worse_by > bound * abs(pmed):
        v = "worse"
    else:
        v = "no worse"
    return pmed, pq1, pq3, cmed, quart(c), wins, pairs, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    defs = {m["name"]: (m["unit"], m["better"], m.get("bound")) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        defs[m["name"]] = (m["unit"], m["better"], None)

    parent, change = load(args.parent), load(args.change)
    worst = 0
    for key in sorted(set(parent) & set(change)):
        pr, cr = parent[key], change[key]
        seeds = sorted(set(pr) & set(cr))
        if seeds:
            pruns, cruns = [pr[s] for s in seeds], [cr[s] for s in seeds]
        else:
            pruns = [pr[s] for s in sorted(pr)]
            cruns = [cr[s] for s in sorted(cr)]
        pfail = sum(r["failed"] for r in pruns)
        cfail = sum(r["failed"] for r in cruns)
        print(f"== {key[0]} trace {key[1]}: {len(pruns)} parent runs ({pfail} failed reps), "
              f"{len(cruns)} change runs ({cfail} failed reps), {min(len(pruns), len(cruns))} pairs")
        print(f"   {'metric':28} {'unit':12} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>6}  verdict")
        for name in sorted(defs):
            if not all(name in r["metrics"] for r in pruns + cruns):
                continue
            unit, better, bound = defs[name]
            p = [r["metrics"][name]["median"] for r in pruns]
            c = [r["metrics"][name]["median"] for r in cruns]
            pmed, pq1, pq3, cmed, (cq1, _, cq3), wins, pairs, v = verdict(p, c, better, bound, cfail > pfail)
            delta = f"{(cmed - pmed) / abs(pmed):+.1%}" if pmed else "n/a"
            print(f"   {name:28} {unit:12} {pmed:12.5g} [{pq1:9.4g}, {pq3:9.4g}] "
                  f"{cmed:12.5g} [{cq1:9.4g}, {cq3:9.4g}] {delta:>8} {wins:>3}/{pairs:<2}  {v}")
            if bound is not None and v in ("worse", "unresolved"):
                worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
