#!/usr/bin/env python3
"""Check that the bench suite produces identical results serial vs parallel.

Runs the given suite binary twice — with --jobs 1 and --jobs N — into two
--json directories, strips the host-wall-clock field (wall_seconds) from
every result file, and requires the two directories to hold the same files
with byte-identical remainders.  That is the sweep runner's guarantee
(bench/sweep_pool.hpp): points merge in submission order regardless of
completion order.

Extra arguments after the job count are passed verbatim to both runs:
figure names to check only those figures (default: all of them), or
e.g. `--filter emu2` to check one slice.

usage: check_jobs_determinism.py <suite-binary> [n] [figure|flag...]
"""
import json
import os
import subprocess
import sys
import tempfile


def run(binary, n, extra):
    # A missing binary must fail the gate, not die in a confusing
    # FileNotFoundError inside subprocess.
    if not (os.path.isfile(binary) and os.access(binary, os.X_OK)):
        sys.exit(f"check_jobs_determinism: suite binary '{binary}' does not "
                 f"exist or is not executable — build it first")
    with tempfile.TemporaryDirectory() as out:
        cmd = [binary, "--quick", "--jobs", str(n), "--json", out] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                     f"{proc.stdout}\n{proc.stderr}")
        results = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name)) as f:
                result = json.load(f)
            result.pop("wall_seconds", None)
            results[name] = result
        return results


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    binary = args[0]
    n = int(args[1]) if len(args) > 1 else 8
    extra = args[2:]
    serial = run(binary, 1, extra)
    parallel = run(binary, n, extra)
    if not serial:
        sys.exit(f"{binary}: wrote no result files")
    if sorted(serial) != sorted(parallel):
        sys.exit(f"{binary}: --jobs 1 wrote {sorted(serial)}, --jobs {n} "
                 f"wrote {sorted(parallel)}")
    failed = False
    for name in sorted(serial):
        if serial[name] == parallel[name]:
            print(f"{name}: --jobs 1 == --jobs {n} "
                  f"({len(serial[name].get('series', []))} series) OK")
            continue
        failed = True
        a = json.dumps(serial[name], indent=1, sort_keys=True).splitlines()
        b = json.dumps(parallel[name], indent=1, sort_keys=True).splitlines()
        diff = [f"-{x}\n+{y}" for x, y in zip(a, b) if x != y]
        print(f"{name}: --jobs 1 vs --jobs {n} results differ after "
              f"stripping wall_seconds:\n" + "\n".join(diff[:40]))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
