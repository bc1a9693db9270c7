#!/usr/bin/env python3
"""Benchmark entry point for the explorer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep|batch|deep|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds the explorer and the benchmark binary from source
with dune, runs one workload in a fresh benchmark process, and passes its
report through; the last line of standard output is the JSON result and
the exit code is nonzero when an output check failed. --self-check runs
every workload at a tiny scale, checks that each passes, and that a
deliberately damaged outcome or serve body is caught.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
EXPLORE = os.path.join("_build", "default", "bin", "explore.exe")
WORKLOADS = ["sweep", "batch", "deep", "serve"]


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ["dune-project", "lib", os.path.join("bin", "explore.ml")]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no explorer sources here (missing %s)" % need)
    if shutil.which("dune"):
        cmd = ["dune"]
    elif shutil.which("opam"):
        cmd = ["opam", "exec", "--", "dune"]
    else:
        fail("dune is not installed")
    # No shared build cache: every file the build writes stays in _build.
    r = subprocess.run(
        cmd + ["build", "--root", ".", "--cache=disabled",
               "./perfbench/bench.exe", "./bin/explore.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", r.returncode)


def bench_args(workload, seed, seconds, trace, extra=()):
    return [os.path.join(ROOT, BENCH), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--explore", os.path.join(ROOT, EXPLORE)] + list(extra)


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def self_check():
    """Tiny runs of every workload: clean runs pass, damaged ones fail."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for w in WORKLOADS:
        for trace, names in [(0, e2e), (1, layers)]:
            p = subprocess.run(bench_args(w, 7, 1, trace, ["--scale", "tiny"]),
                               cwd=ROOT, capture_output=True, text=True, timeout=170)
            r = result_of(p.stdout)
            ok = (p.returncode == 0 and r is not None and r["correct"]
                  and set(r["metrics"]) == names)
            if ok and trace == 0:
                ok = r["metrics"]["ok_share"]["value"] == 1.0
            print("%-5s trace=%d clean run: %s" % (w, trace, "ok" if ok else "FAILED"))
            if not ok:
                problems.append("%s trace=%d: exit %d, result %s\n%s"
                                % (w, trace, p.returncode, r, p.stderr[-2000:]))
        damage = "body" if w == "serve" else "outcome"
        p = subprocess.run(bench_args(w, 7, 1, 0, ["--scale", "tiny", "--corrupt", damage]),
                           cwd=ROOT, capture_output=True, text=True, timeout=170)
        r = result_of(p.stdout)
        caught = (p.returncode != 0 and r is not None and not r["correct"]
                  and r["failed"] >= 1 and r["metrics"]["ok_share"]["value"] < 1.0)
        print("%-5s damaged %s caught: %s" % (w, damage, "ok" if caught else "FAILED"))
        if not caught:
            problems.append("%s: damaged %s not caught: exit %d, result %s"
                            % (w, damage, p.returncode, r))
    # Without the explorer's sources next to it the benchmark must refuse
    # to run: no result line, nonzero exit.
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    refused = p.returncode != 0 and result_of(p.stdout) is None
    print("bare directory refused: %s" % ("ok" if refused else "FAILED"))
    if not refused:
        problems.append("bare directory: exit %d, stdout %r" % (p.returncode, p.stdout[-500:]))
    for s in problems:
        print(s, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_check:
        sys.exit(self_check())
    if a.workload is None:
        fail("--workload is required")
    sys.stdout.flush()
    p = subprocess.run(bench_args(a.workload, a.seed, a.seconds, a.trace), cwd=ROOT)
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
