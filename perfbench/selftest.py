#!/usr/bin/env python3
"""Show that the output checks catch corrupted bars.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs one ``paper`` iteration, confirms its outputs pass, then corrupts one
output at a time and confirms each corruption is reported: bars against the
seed-independent invariants, the beating graph against the reference.  Exits 0 when every
corruption is caught.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

from checks import Checker
from run import HERE, ROOT, Runner, load_modules
from workloads import DEFAULT_SEED, WORKLOADS

BARCODE = os.path.join("paper_cloud", "barcode_euclidean.csv")
DOT = os.path.join("paper_dice", "beating_graph.dot")


def _rows(lines: List[str]) -> List[int]:
    start = lines.index("dim,birth,death,open\n") + 1
    return list(range(start, len(lines)))


def nudge_h1_death(lines: List[str]) -> None:
    i = next(i for i in _rows(lines) if lines[i].startswith("1,") and lines[i].endswith(",0\n"))
    dim, birth, death, flag = lines[i].strip().split(",")
    lines[i] = f"{dim},{birth},{float(death) * (1 + 1e-7):.17g},{flag}\n"


def shift_h0_death(lines: List[str]) -> None:
    i = next(i for i in _rows(lines) if lines[i].startswith("0,") and lines[i].endswith(",0\n"))
    dim, birth, death, flag = lines[i].strip().split(",")
    lines[i] = f"{dim},{birth},{float(death) + 1e-3:.17g},{flag}\n"


def drop_h2_bar(lines: List[str]) -> None:
    del lines[next(i for i in _rows(lines) if lines[i].startswith("2,"))]


def close_open_bar(lines: List[str]) -> None:
    i = next(i for i in _rows(lines) if lines[i].endswith(",1\n"))
    lines[i] = lines[i][:-2] + "0\n"


def relabel_edge(lines: List[str]) -> None:
    i = next(i for i, line in enumerate(lines) if "->" in line)
    lines[i] = lines[i].replace("/36", "/35")


CASES = [
    ("H1 death nudged by 1e-7", DEFAULT_SEED, BARCODE, nudge_h1_death),
    ("H0 death shifted", DEFAULT_SEED + 1, BARCODE, shift_h0_death),
    ("H2 bar dropped", DEFAULT_SEED + 1, BARCODE, drop_h2_bar),
    ("open bar closed", DEFAULT_SEED + 1, BARCODE, close_open_bar),
    ("beating-graph edge label changed", DEFAULT_SEED + 1, DOT, relabel_edge),
]


def main() -> int:
    os.chdir(ROOT)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    modules = load_modules()
    workload = WORKLOADS["paper"]
    missed = 0
    for label, seed, name, corrupt in CASES:
        runner = Runner(workload, seed, Checker(reference), modules)
        runner.iteration(0)
        if runner.failures:
            print(f"FAIL {label}: clean outputs rejected: {runner.failures[0]}")
            return 1
        path = os.path.join(runner.out, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        corrupt(lines)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        part = next(p for p in workload.parts if name.startswith(p.name))
        error = Checker(reference).check(
            workload.name, part, os.path.join(runner.out, part.name), seed, 0
        )
        if error is None:
            missed += 1
            print(f"MISSED {label} (seed {seed})")
        else:
            print(f"caught {label} (seed {seed}): {error}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
