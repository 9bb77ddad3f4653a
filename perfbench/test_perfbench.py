#!/usr/bin/env python3
"""Tests of the simulator-speed benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary through run.py (as a benchmark run does) and
checks that the simulated-output digest of each workload is identical
across an untraced run, a traced run and a repeat of the untraced run with
the same seed, that every metric BENCHMARK.json names is printed with its
unit, that a metric a run names as unmeasured reads 0, and that the
benchmark fails without printing a result when the sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = [ln for ln in lines if ln.startswith("digest ")]
    assert len(digest) == 1, proc.stdout
    result = json.loads(lines[-1])
    for ln in lines:
        if ln.startswith("unmeasured "):
            name = ln.split()[1].rstrip(":")
            assert result["metrics"][name]["value"] == 0, ln
    return digest[0], result


class Digests(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in specs))
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_digest_repeats_across_timed_traced_and_repeat_runs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                timed, res = parse(run(w, 7, 0))
                self.check_metrics(res, SPEC["end_to_end"])
                traced, res = parse(run(w, 7, 1))
                self.check_metrics(res, SPEC["per_layer"])
                again, _ = parse(run(w, 7, 0))
                self.assertEqual(timed, traced)
                self.assertEqual(timed, again)

    def test_seed_drives_the_inputs(self):
        a, _ = parse(run("serve_mix", 7, 0))
        b, _ = parse(run("serve_mix", 8, 0))
        self.assertNotEqual(a.split()[-1], b.split()[-1])


class Refusals(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 1, 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_binary_rejects_unknown_workload(self):
        subprocess.run(SPEC["command"] + ["--workload", "serve_mix", "--seed",
                                          "1", "--seconds", "0.1"],
                       cwd=ROOT, capture_output=True, check=True)
        binary = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
        proc = subprocess.run([binary, "--workload", "nope", "--seed", "1"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    sys.exit(unittest.main())
