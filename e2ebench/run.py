#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload replay_track|live_serve|query_heavy \
        --seed N --seconds S --trace 0|1 [e2e_bench options]

The benchmark is configured and built in Release with CMake under
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), its statistics
self-test runs, and then e2e_bench runs with the given arguments. Build
output goes to stderr; the benchmark's report goes to stdout, ending with
one JSON line. With --trace 1 the traced run's spans are written to
<build dir>/spans-<workload>-<seed>.csv.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"e2ebench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def arg_value(args, name):
    for i in range(len(args) - 1):
        if args[i] == name:
            return args[i + 1]
    return None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "correlation_index.h")):
        fail("corrtrack sources (src/) not found next to e2ebench/")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    build(build_dir)

    test = subprocess.run([os.path.join(build_dir, "e2e_stats_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode != 0:
        fail("the benchmark's statistics self-test failed")

    command = [os.path.join(build_dir, "e2e_bench")] + args
    if arg_value(args, "--trace") not in (None, "0"):
        spans = os.path.join(
            build_dir, f"spans-{arg_value(args, '--workload')}-{arg_value(args, '--seed')}.csv")
        if os.path.exists(spans):
            os.remove(spans)
        command += ["--span-out", spans]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
