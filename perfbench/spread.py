#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics against their bounds.

    python3 perfbench/spread.py --workload pod_incast --seeds 101-110 [--seconds 30]

Run from the repository root. Builds once, runs the untraced benchmark once
per seed, and prints for every end-to-end metric its median and its spread:
the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound in BENCHMARK.json. A spread above a third of its bound is
marked `!`; above the bound, `!!` (`setup_s` is exempt: it is bounded by its
median only). Exits 1 if any run failed or was incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("101-110"))
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    ftsim, binary = bench.build()
    values, bad = {}, 0
    for seed in args.seeds:
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0", "--ftsim", ftsim],
            cwd=bench.ROOT, capture_output=True, text=True, timeout=bench.RUN_TIMEOUT_S)
        if out.returncode != 0:
            print("seed %d: exit %d: %s" % (seed, out.returncode, out.stderr.strip()[-300:]))
            bad += 1
            continue
        r = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: correct %s, attempted %d, failed %d"
              % (seed, r["correct"], r["attempted"], r["failed"]), flush=True)
        bad += not r["correct"]
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for m in spec["end_to_end"]:
        v = values.get(m["name"], [])
        if len(v) < 2:
            continue
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med
        flag = "" if m["name"] == "setup_s" else "!!" if spread > m["bound"] else \
            "!" if spread > m["bound"] / 3 else ""
        print("%-28s median %-12.6g spread %.3f  bound %.2f %s"
              % (m["name"], med, spread, m["bound"], flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
