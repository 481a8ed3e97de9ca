#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 clabench/selftest.py [--seed 2]

Run it from the root of a checkout. For every workload it runs run.py
with tiny inputs (--smoke), once untraced and once traced, on a second
seed, and checks that the result line has exactly the contract's keys,
that every check passed, and that the workload emitted every metric
BENCHMARK.json declares for that mode, with its unit, and no other. Exits
1 on the first problem.
"""

import argparse
import json
import os
import subprocess
import sys

import run


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()
    spec = run.load_spec(os.getcwd())

    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in spec[kind]}
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=600)
            what = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail("%s exited %d:\n%s" % (what, proc.returncode,
                                             proc.stdout))
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (what, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0 \
                    or result["attempted"] < 1:
                fail("%s: checks failed:\n%s" % (what, proc.stdout))
            metrics = result["metrics"]
            for name in units:
                if name not in metrics:
                    fail("%s: metric %s missing" % (what, name))
                value, unit = metrics[name]["value"], metrics[name]["unit"]
                if unit != units[name] or not isinstance(value, (int, float)):
                    fail("%s: %s = %r %r, want unit %s" %
                         (what, name, value, unit, units[name]))
            extra = set(metrics) - set(units)
            if extra:
                fail("%s: unexpected metrics %s" % (what, sorted(extra)))
            print("selftest: ok %s (%d metrics)" % (what, len(metrics)))
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
