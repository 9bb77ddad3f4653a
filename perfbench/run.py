#!/usr/bin/env python3
"""Build and run the simulator-speed benchmark.

    python3 perfbench/run.py --workload chase_xeon --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Configures and builds perfbench/ (which
compiles the emusim library from src/) in Release under .bench_build/, then
runs the binary.  Build output goes to stderr; the binary's stdout passes
through unchanged, and its last line is the result JSON.  With --trace 1 the
recorded spans are written to .bench_build/spans-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
# Give up on a hung run after this long.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ tree beside perfbench/; run from a checkout")
    out = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def commit():
    # Only ask git when the checkout is itself a repository, so nothing
    # outside the checkout is read.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["chase_xeon", "chase_emu", "serve_mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--commit", commit()]
    if a.trace == "1":
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{a.workload}-{a.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
