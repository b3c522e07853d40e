#!/usr/bin/env python3
"""Build and run the hlcs end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune (build directory
.bench_build, dune's shared cache off), then runs it once, in a fresh
process, for the one workload named.  The program's standard output is
passed through; its last line is the JSON result.  The exit status is the
program's: 0 only when every correctness check passed.  See
perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
# the program must finish within this many seconds beyond its window
SLACK_S = 120
# Every workload runs on one CPU: each runs one thread at a time
# (serve_mixed's daemon thread and client alternate in a closed loop), and
# on one CPU a hand-off stays a local context switch instead of a
# cross-CPU wake-up whose cost depends on whether the other CPU idles.


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    return 2


def arg(argv, flag):
    for f, value in zip(argv, argv[1:]):
        if f == flag:
            return value
    return None


def pin_one_cpu():
    os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])


def main(argv):
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            return fail("no %s here: run from the root of an hlcs checkout" % need)
    try:
        seconds = float(arg(argv, "--seconds"))
    except (TypeError, ValueError):
        seconds = 0
    if seconds <= 0:
        return fail("--seconds S is required")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune not found on PATH")

    env = dict(os.environ)
    # caches stay on their default memory-only tier
    env.pop("HLCS_SYNTH_CACHE", None)
    env["DUNE_CACHE"] = "disabled"

    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", TARGET],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    started = time.monotonic()
    try:
        run = subprocess.run([exe] + argv, env=env,
                             preexec_fn=pin_one_cpu,
                             timeout=seconds + SLACK_S)
    except subprocess.TimeoutExpired:
        return fail("workload still running after %.0f s, killed"
                    % (time.monotonic() - started))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
