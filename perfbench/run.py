#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cover-tcp --seed 1 --seconds 10 --trace 0

The build is an optimised (Release) CMake tree of the library sources
plus the perfbench program, kept in $CARGO_TARGET_DIR (default
.bench_build) so later runs only relink what changed.  Build output goes
to stderr; stdout carries only the benchmark's own lines, the last of
which is the result object.  See perfbench/NOTES.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no hyperion sources under " + ROOT, file=sys.stderr)
        return 2
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j",
                  jobs])
    for step in steps:
        rc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return rc
    return 0


def main():
    out = build_dir()
    rc = build(out)
    if rc != 0:
        return rc
    binary = os.path.join(out, "perfbench")
    workdir = os.path.join(out, "work")
    return subprocess.run([binary] + sys.argv[1:] +
                          ["--workdir", workdir]).returncode


if __name__ == "__main__":
    sys.exit(main())
