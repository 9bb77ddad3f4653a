#!/usr/bin/env python3
"""Check that perfbench's simulated-output digests match the trajectory.

    python3 tools/check_sim_digests.py

Run from anywhere inside a checkout.  For each perfbench workload and for
the trajectory's default and held-out seeds, runs

    python3 perfbench/run.py --workload W --seed S --seconds 0.1 --trace 0

(one pass; run.py builds perfbench first) and compares the printed
`digest W seed=S HEX` line with the digest recorded in the latest entry of
perfbench/trajectory.json.  The digests cover the full-size (n = 2^21)
perfbench points, which the quick-bench baselines do not.  Exits 1 naming
every mismatch or missing digest; reads perfbench/ and writes nothing there.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "perfbench", "trajectory.json")
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["chase_xeon", "chase_emu", "serve_mix"]
# Trajectory field holding the digest recorded for each seed key.
SEED_FIELDS = {"default_seed": "digest_default_seed",
               "heldout_seed": "digest_heldout_seed"}


def expected_digests():
    with open(TRAJECTORY) as f:
        traj = json.load(f)
    latest = traj["entries"][-1]["workloads"]
    out = {}
    for seed_key, field in SEED_FIELDS.items():
        seed = traj[seed_key]
        for w in WORKLOADS:
            out[(w, seed)] = latest[w][field]
    return out


def measured_digest(workload, seed):
    r = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    pattern = re.compile(rf"^digest {re.escape(workload)} seed={seed} (\S+)$")
    for line in r.stdout.splitlines():
        m = pattern.match(line)
        if m:
            return m.group(1), r.returncode
    return None, r.returncode


def main():
    failures = []
    for (workload, seed), want in expected_digests().items():
        got, rc = measured_digest(workload, seed)
        if got is None:
            failures.append(f"{workload} seed={seed}: no digest line "
                            f"(run.py exit {rc})")
        elif got != want:
            failures.append(f"{workload} seed={seed}: digest {got}, "
                            f"trajectory has {want}")
        else:
            print(f"ok {workload} seed={seed} {got}", flush=True)
    for f in failures:
        print(f"MISMATCH {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
