#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `ftsim` and the `perfbench` package
from source (release profile, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one measurement. Cargo's output goes to stderr;
stdout ends with the result object. Extra flags (`--tiny 1`, `--inject ...`,
`--out DIR`) pass through to the benchmark binary.
"""

import datetime
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Build ftsim (the served binary) and the benchmark; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "ftsim"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "ftsim"), os.path.join(rel, "perfbench")


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    try:
        ftsim, bench = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    provenance = [
        "--rustc", capture(["rustc", "--version"]),
        "--git-rev", capture(["git", "rev-parse", "HEAD"]),
        "--date", datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    ]
    cmd = [bench] + argv + ["--ftsim", ftsim] + provenance
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
