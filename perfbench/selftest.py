#!/usr/bin/env python3
"""Layer-attribution self-test: slow one layer down on purpose and check
that the benchmark blames that layer.

    python3 perfbench/selftest.py [--seconds 4] [--delay-us 3000]

The TracedSource decorator (bench.h) adds a fixed delay to every table
fetch the cluster workloads' QueryService makes through the
coordinator's ClusterTableSource.  The test runs each workload with and
without the delay and requires:

  * cluster-rw, traced: cluster.fetch_ms rises by at least the delay;
  * cluster-rw, untraced: query_p50_ms rises by at least the delay (every
    query fetches each of its path's tables, cache hit or not);
  * cover-tcp, untraced: query_p50_ms stays within 25% — that workload
    reads a local TableStore and never touches the delayed layer.

Exit status 0 when all three hold, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)


def measure(binary, workdir, workload, trace, delay_us, seconds, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0",
           "--fetch-delay-us", str(delay_us), "--workdir", workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("selftest: %s failed with exit code %d" %
                 (" ".join(cmd), proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("selftest: %s reported incorrect covers" % workload)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--delay-us", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    out = run.build_dir()
    if run.build(out) != 0:
        return 1
    binary = os.path.join(out, "perfbench")
    workdir = os.path.join(out, "selftest")
    delay_ms = args.delay_us / 1000.0

    def both(workload, trace, metric):
        base = measure(binary, workdir, workload, trace, 0, args.seconds,
                       args.seed)[metric]
        slow = measure(binary, workdir, workload, trace, args.delay_us,
                       args.seconds, args.seed)[metric]
        return base, slow

    checks = []
    base, slow = both("cluster-rw", True, "cluster.fetch_ms")
    checks.append(("cluster-rw cluster.fetch_ms", base, slow,
                   slow >= base + delay_ms))
    base, slow = both("cluster-rw", False, "query_p50_ms")
    checks.append(("cluster-rw query_p50_ms", base, slow,
                   slow >= base + delay_ms))
    base, slow = both("cover-tcp", False, "query_p50_ms")
    checks.append(("cover-tcp query_p50_ms", base, slow,
                   abs(slow - base) <= 0.25 * base))

    ok = True
    for name, base, slow, passed in checks:
        print("%-32s %10.3f ms -> %10.3f ms  %s" %
              (name, base, slow, "ok" if passed else "FAIL"))
        ok = ok and passed
    print("layer attribution: " + ("PASS" if ok else "FAIL") +
          " (fetch delay %d us)" % args.delay_us)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
