#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --threads 4 --workload sim_sweep \\
        --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the library
sources in src/) into .bench_build/; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The script fails without printing a result
when the library sources are missing or the build fails, and it checks
that the printed metric names and units are the ones BENCHMARK.json
declares.
"""
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            run_build(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        run_build(["cmake", "--build", BUILD, "--target", "perfbench",
                   "perfbench_selftest", "-j", jobs])


def run_build(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    proc = subprocess.run([os.path.join(BUILD, "perfbench")] + args,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    result = json.loads(lines[-1])
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if printed != declared_metrics(trace):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: printed metrics or units differ from "
                 "BENCHMARK.json")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
