#!/usr/bin/env python3
"""Regenerates clabench/digests.json: the SHA-256 of the radiosity JSON
report (`cla-analyze <trace> --report json --threads 1`) for each seed.

    python3 clabench/pin_digests.py [--seeds 0-99]

Run it from the root of a checkout. Every benchmark run compares the
radiosity trace's report against the pinned digest of its seed, and
every live pass against that report, so re-pin only when a change is
meant to alter the report bytes, and say so in that change.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99",
                        help="inclusive range, e.g. 0-99")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    root = os.getcwd()
    if not run.build(root):
        return 1
    tools = os.path.join(root, run.BUILD_ROOT, "clabench")
    tmp_parent = os.path.join(root, run.BUILD_ROOT, "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    pins = {}
    with tempfile.TemporaryDirectory(prefix="pin-", dir=tmp_parent) as tmp:
        trace = os.path.join(tmp, "radiosity.clat")
        for seed in range(first, last + 1):
            subprocess.run(
                [os.path.join(tools, "probe"), "radiosity", "--seed",
                 str(seed), "--threads", str(run.RADIOSITY_THREADS),
                 "--scale", str(run.RADIOSITY_SCALE), "--out", trace],
                check=True, stdout=subprocess.DEVNULL)
            report = subprocess.run(
                [os.path.join(tools, "cla", "tools", "cla-analyze"), trace,
                 "--report", "json", "--threads", "1"],
                check=True, stdout=subprocess.PIPE).stdout
            pins[str(seed)] = hashlib.sha256(report).hexdigest()
            print(seed, pins[str(seed)], file=sys.stderr)
    with open(os.path.join(run.HERE, "digests.json"), "w") as f:
        json.dump({"radiosity": pins}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
