#!/usr/bin/env python3
"""Write perfbench/reference.json: digests of every output at the default seed.

Run from the root of a checkout of the commit whose outputs are the
reference (the outputs must not change unless a change says so):

    python3 perfbench/capture_reference.py

Every pool entry of every workload runs once at the default seed and must
pass the seed-independent invariants before its digests are recorded.
"""

from __future__ import annotations

import json
import os
import sys

from checks import Checker, digests
from run import HERE, ROOT, Runner, load_modules
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    os.chdir(ROOT)
    modules = load_modules()
    reference = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        runner = Runner(workload, DEFAULT_SEED, Checker(None), modules)
        parts = {part.name: [] for part in workload.parts}
        for index in range(workload.pool):
            runner.iteration(index)
            if runner.failures:
                print(f"{name}: {runner.failures[0]}", file=sys.stderr)
                return 1
            for part in workload.parts:
                if part.domain == "cloud" or index == 0:
                    parts[part.name].append(digests(os.path.join(runner.out, part.name)))
        reference["workloads"][name] = parts
        print(f"{name}: {workload.pool} inputs captured")
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
