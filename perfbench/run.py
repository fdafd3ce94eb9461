#!/usr/bin/env python3
"""Build and run the crowd-server benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune into .bench_build (shared dune
cache off, so nothing is written outside the checkout), runs it, and
checks that its last output line names exactly the metrics BENCHMARK.json
declares for the trace mode. Exits non-zero, without a result line, when
the build fails.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_ALLOWANCE_S = 140
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    argv = sys.argv[1:]
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        sys.exit("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    trace = argv[argv.index("--trace") + 1] == "1"
    try:
        seconds = int(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        sys.exit("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    dune = ["dune"] if shutil.which("dune") or not shutil.which("opam") \
        else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--cache=disabled", "--display=quiet", "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, timeout=870)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    # The measured phase lasts --seconds; the allowance covers input
    # generation, the warm-up repetition, the last repetition's overrun
    # and the reference runs the checks compare against.
    try:
        run = subprocess.run([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=seconds + RUN_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded --seconds + %d s" % RUN_ALLOWANCE_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if set(result["metrics"]) != declared_metrics(trace):
        sys.exit("perfbench: printed metrics differ from BENCHMARK.json")


if __name__ == "__main__":
    main()
