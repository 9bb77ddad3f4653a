#!/usr/bin/env python3
"""Check that a bench produces identical results serial vs parallel.

Runs the given bench binary twice — with --jobs 1 and --jobs N — captures
the JSON result of each, strips the host-wall-clock fields (wall_seconds
and the events_per_sec point extra), and requires the remainder to be
byte-identical.  That is the sweep runner's guarantee
(bench/sweep_pool.hpp): points merge in submission order regardless of
completion order.

Extra arguments after the job count are passed verbatim to both runs
(e.g. `--filter emu2` to check one slice of a bench).

usage: check_jobs_determinism.py <bench-binary> [n] [extra...]
"""
import json
import subprocess
import sys
import tempfile
import os


def strip_wall_fields(result):
    result.pop("wall_seconds", None)
    # events_per_sec is engine_events over host wall time: the only
    # wall-derived point extra.  engine_events and mem_peak_bytes stay —
    # both are deterministic and must match.
    for series in result.get("series", []):
        for point in series.get("points", []):
            extra = point.get("extra")
            if isinstance(extra, dict):
                extra.pop("events_per_sec", None)
    return result


def run(binary, n, extra):
    # A listed-but-unbuilt bench must fail the gate, not die in a confusing
    # FileNotFoundError inside subprocess: CI loops over bench names, and a
    # typo'd or dropped binary silently skipping would hollow out the gate.
    if not (os.path.isfile(binary) and os.access(binary, os.X_OK)):
        sys.exit(f"check_jobs_determinism: bench binary '{binary}' does not "
                 f"exist or is not executable — build it (or fix the gate's "
                 f"bench list)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        path = tmp.name
    try:
        cmd = [binary, "--quick", "--jobs", str(n), "--json", path] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                     f"{proc.stdout}\n{proc.stderr}")
        with open(path) as f:
            return strip_wall_fields(json.load(f))
    finally:
        os.unlink(path)


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    binary = args[0]
    n = int(args[1]) if len(args) > 1 else 8
    extra = args[2:]
    serial = run(binary, 1, extra)
    parallel = run(binary, n, extra)
    if serial != parallel:
        a = json.dumps(serial, indent=1, sort_keys=True).splitlines()
        b = json.dumps(parallel, indent=1, sort_keys=True).splitlines()
        diff = [f"-{x}\n+{y}" for x, y in zip(a, b) if x != y]
        sys.exit(f"{binary}: --jobs 1 vs --jobs {n} results differ "
                 f"after stripping wall-clock fields:\n" + "\n".join(diff[:40]))
    print(f"{os.path.basename(binary)}: --jobs 1 == --jobs {n} "
          f"({len(serial.get('series', []))} series) OK")


if __name__ == "__main__":
    main()
