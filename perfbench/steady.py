#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seed-base 1]
                                [--workload <name> ...]

Run from the root of a checkout. Runs perfbench/run.py --trace 0 on each
workload --runs times, each time with another seed, for --sets sets, and
prints for every end-to-end metric its median, first and third quartile and
spread (quartile distance as a share of the median, as
statistics.quantiles(n=4) gives them) against the metric's bound in
BENCHMARK.json. With two sets it also prints how far the second median moved
from the first. Seeds continue across sets, so no two runs share a seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {}
    seed = args.seed_base
    ok = True
    for wl in workloads:
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                cmd = [sys.executable] + bench["command"][1:] + [
                    "--workload", wl, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True)
                seed += 1
                last = p.stdout.strip().splitlines()[-1:] or ["{}"]
                res = json.loads(last[0]) if p.returncode == 0 else {}
                if not res.get("correct"):
                    ok = False
                    print("%s seed %d: exit %d, not correct\n%s"
                          % (wl, seed - 1, p.returncode, p.stderr[-2000:]))
                    continue
                res["seed"] = seed - 1
                runs.append(res)
            results.setdefault(wl, []).append(runs)

    for wl, sets in results.items():
        print("\n%s" % wl)
        print("  %-22s %-6s %12s %12s %12s %8s %6s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound", "drift"))
        fail_shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        for name, m in bounds.items():
            meds = []
            for i, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                sp = metrics.spread(vals)
                meds.append(med)
                drift = ""
                if i > 0:
                    worse = (med - meds[0]) / meds[0]
                    if m["better"] == "higher":
                        worse = -worse
                    drift = "%+.3f" % worse
                    if worse > m["bound"]:
                        ok = False
                flag = "" if sp <= m["bound"] else "  OVER"
                if sp > m["bound"]:
                    ok = False
                print("  %-22s %-6d %12.6g %12.6g %12.6g %8.4f %6.3f %8s%s" % (
                    name, i + 1, q1, med, q3, sp, m["bound"], drift, flag))
        print("  failed shares per set: %s" % fail_shares)
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
