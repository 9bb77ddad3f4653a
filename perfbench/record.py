#!/usr/bin/env python3
"""Measure the benchmark in two sets of runs and record a trajectory entry.

    python3 perfbench/record.py [--append "note"]

Runs every workload in BENCHMARK.json untraced with seeds 1..10 and the run
length BENCHMARK.json sets, then does the same again as a second set.  For
each end-to-end metric and set it prints the median and the quartile spread
(the distance between the first and third quartile as a share of the
median), and it compares the two sets' medians.  Exits 1 if a run fails, a
seed's simulated-output digest differs between the sets, a spread exceeds
its metric's bound, or the second median differs from the first by more
than the bound.

With --append it also runs the held-out seed and one traced run per
workload, and appends the first set's numbers, the second set's medians,
the digests and the host to perfbench/trajectory.json.  Per-layer metrics
the traced run could not measure on a workload are kept apart from the
measured ones, with the reason the run gives.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TRAJECTORY = os.path.join(HERE, "trajectory.json")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(1, 11)
SETS = 2


def run(workload, seed, trace):
    """Returns the result JSON and the run's host, digest and unmeasured
    lines."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} reported failures:\n{proc.stdout}")
    host = next(ln for ln in lines if ln.startswith("host "))
    digest = next(ln for ln in lines if ln.startswith("digest ")).split()[-1]
    unmeasured = dict(ln[len("unmeasured "):].split(": ", 1)
                      for ln in lines if ln.startswith("unmeasured "))
    return result, host, digest, unmeasured


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--append", metavar="NOTE",
                    help="append an entry with this note to trajectory.json")
    a = ap.parse_args()
    traj = json.load(open(TRAJECTORY))

    # values[set][workload][metric] lists one value per seed.
    values = [{w: {} for w in WORKLOADS} for _ in range(SETS)]
    digests = [{w: {} for w in WORKLOADS} for _ in range(SETS)]
    hosts = {}
    for s in range(SETS):
        for w in WORKLOADS:
            for seed in SEEDS:
                result, hosts[w], digests[s][w][seed], _ = run(w, seed, 0)
                for name, m in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)

    ok = True
    entry = {"note": a.append, "date": datetime.date.today().isoformat(),
             "runs": len(SEEDS), "sets": SETS,
             "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for w in WORKLOADS:
        if digests[0][w] != digests[1][w]:
            print(f"{w}: digests differ between the sets OVER", flush=True)
            ok = False
        rec = {"host": hosts[w], "metrics": {}}
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in range(SETS):
                v = values[s][w][name]
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / med
                within = spread <= bound
                ok = ok and within
                print(f"{w} {name} set {s + 1}: median {med:.5g} {m['unit']}, "
                      f"spread {spread:.3f} (bound {bound})"
                      f"{'' if within else ' OVER'}", flush=True)
                if s == 0:
                    rec["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                            "unit": m["unit"]}
                meds.append(med)
            shift = abs(meds[1] - meds[0]) / meds[0]
            within = shift <= bound
            ok = ok and within
            print(f"{w} {name}: set 2 median differs from set 1 by {shift:.3f}"
                  f" (bound {bound}){'' if within else ' OVER'}", flush=True)
            rec["metrics"][name]["set2_median"] = meds[1]
        if a.append:
            rec["digest_default_seed"] = digests[0][w][traj["default_seed"]]
            rec["digest_heldout_seed"] = run(w, traj["heldout_seed"], 0)[2]
            traced, _, _, unmeasured = run(w, traj["default_seed"], 1)
            rec["per_layer_default_seed"] = {
                k: v["value"] for k, v in traced["metrics"].items()
                if k not in unmeasured}
            rec["unmeasured_per_layer"] = unmeasured
        entry["workloads"][w] = rec

    if a.append:
        entry["machine"] = platform.machine()
        traj["entries"].append(entry)
        with open(TRAJECTORY, "w") as f:
            json.dump(traj, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
