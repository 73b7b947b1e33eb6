#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. Checks that

* every workload, untraced and traced, prints exactly the metrics that
  BENCHMARK.json names for that mode, each with its unit, and a correct
  result;
* a deliberately mismatched sharded result and a deliberately corrupted
  served response are each counted as a failure and make the run incorrect.

Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

import run as bench

OUT = os.path.join(bench.ROOT, ".bench_out", "selftest")
SECONDS = "2"


def result(binary, ftsim, workload, trace, inject=None):
    cmd = [binary, "--workload", workload, "--seed", "11", "--seconds", SECONDS,
           "--trace", str(trace), "--tiny", "1", "--out", OUT, "--ftsim", ftsim]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd), out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ftsim, binary = bench.build()
    # Simulated values are compared with earlier runs of the same seed;
    # start from none, so records of another benchmark version never count.
    shutil.rmtree(OUT, ignore_errors=True)
    problems = []

    for w in spec["workloads"]:
        for trace in (0, 1):
            r = result(binary, ftsim, w["name"], trace)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expect[trace]:
                missing = sorted(set(expect[trace]) - set(got))
                extra = sorted(set(got) - set(expect[trace]))
                wrong = sorted(k for k in got if k in expect[trace] and got[k] != expect[trace][k])
                problems.append("%s trace %d: missing %s, extra %s, wrong unit %s"
                                % (w["name"], trace, missing, extra, wrong))
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s trace %d: result keys %s" % (w["name"], trace, sorted(r)))
            if not r["correct"]:
                problems.append("%s trace %d: incorrect result" % (w["name"], trace))
            if r["failed"]:
                print("note: %s trace %d counted %d failed ops" % (w["name"], trace, r["failed"]))

    for workload, inject in (("bulk_uniform", "shard-mismatch"),
                             ("serve_small", "corrupt-response")):
        r = result(binary, ftsim, workload, 0, inject)
        if r["correct"] or r["failed"] < 1:
            problems.append("--inject %s was not caught: %s" % (inject, r))

    for p in problems:
        print("FAIL:", p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
