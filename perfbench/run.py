#!/usr/bin/env python3
"""Closed-loop benchmark of the ripsbars CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One process, one thread.  Each iteration runs a workload's command chain
in-process through ``ripsbars.cli.main`` with the argv a user would type, and
the next starts only when the last has finished.  Every iteration's outputs
are checked (see checks.py); an iteration fails on a nonzero exit code or a
failed check.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: median wall time of one iteration, in reference seconds.
  Every iteration is bracketed by a fixed pure-Python calibration loop
  (``calibration_work``), and its wall time is scaled by
  ``CALIBRATION_S`` over the mean time of the two loops around it.  A
  shared 2-vCPU cloud VM slows whole processes by 20-60% for seconds to
  tens of seconds at a time, which moves raw medians of a 20 s run by more
  than any useful bound; the calibration loop slows alike and cancels most
  of that out.  On a quiet machine where the loop takes ``CALIBRATION_S``
  the value equals the raw wall time.  The run cycles through the
  workload's pool of inputs (workloads.py) in whole cycles, at least one
  (two for a pool of one), so every input weighs the same; the sample count, the quartiles of the
  raw wall times and the median calibration time are printed with it, and
  the raw samples are written to ``walls.json``;
* ``peak_rss_mb``: peak resident memory of this fresh process after its
  first iteration, i.e. of a process that ran one iteration;
* ``setup_s``: median wall time of a fresh interpreter running
  ``import ripsbars.cli``, the cost every invocation pays before any work,
  in reference seconds like ``wall_s``: each start is scaled by
  ``BARE_START_S`` over the time of a bare interpreter (``-c pass``)
  started just before it, because start-up slows with the host in a way
  the calibration loop does not follow.  The raw median is printed too;
* ``success_rate``: iterations passing divided by iterations attempted
  (``1 - error_rate``; a rate that is 0 when all is well cannot carry a bound
  relative to its median).

With ``--trace 1`` it runs each of the pool's first ``TRACE_POOL`` inputs
untraced and then traced (tracer.py), in two cycles at least, and reports
the median self time of each pipeline layer (tracer.py; the per-module
split is printed too), ``cli.other_s`` (iteration time outside
every layer span), ``trace.overhead_s`` (median traced minus median
untraced iteration time), and deterministic counters of the pool's first
input, which must repeat exactly in every cycle.  The spans are written to
``.perfbench-out/<workload>/spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from checks import Checker
from tracer import Tracer, reduction_counters
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench-out"
SETUP_RUNS = 9
# Inputs a traced run cycles through: two traced cycles of cloud_full's whole
# pool would take 100-200 s.
TRACE_POOL = 8
# About the time calibration_work() takes on a 2-vCPU x86-64 host (CPython
# 3.11, numpy 2.4) when nothing else slows it: the unit wall_s is scaled to.
# Changing it rescales wall_s.
CALIBRATION_S = 0.0100
# About the start time of a bare interpreter (``python3 -c pass``) on the
# same host when nothing else slows it: the unit setup_s is scaled to.
BARE_START_S = 0.050


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_times(runs: int) -> List[Tuple[float, float]]:
    """(bare, full) wall times of fresh interpreters, after one warm-up pair:
    a bare start, then one importing the CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def start(code: str) -> float:
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - begin

    pairs = [(start("pass"), start("import ripsbars.cli")) for _ in range(runs + 1)]
    return pairs[1:]


def environment() -> dict:
    import numpy

    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError):
        pass
    src_dir = os.path.join(SRC, "ripsbars")
    src_lines = 0
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "src_lines": src_lines,
    }


class Runner:
    """Runs and checks iterations of one workload."""

    def __init__(self, workload: Workload, seed: int, checker: Checker, modules: dict):
        self.workload = workload
        self.seed = seed
        self.checker = checker
        self.main = modules["cli"].main
        self.out = os.path.join(OUT, workload.name)
        self.attempted = 0
        self.failures: List[str] = []
        self.rss_mb: Optional[float] = None  # peak RSS after the first iteration

    def iteration(self, index: int) -> float:
        """Run pool input ``index`` once; return its wall time."""
        w = self.workload
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        cloud_seed = w.cloud_seed(self.seed, index)
        chain = [argv for part in w.parts for argv in part.commands(self.out, cloud_seed)]
        sink = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in chain:
                code = self.main(argv)
                if code != 0:
                    break
        wall = time.perf_counter() - start
        if self.rss_mb is None:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.attempted += 1
        if code != 0:
            self.failures.append(f"exit {code} on {argv}: {sink.getvalue()[-500:]}")
            return wall
        for part in w.parts:
            error = self.checker.check(
                w.name, part, os.path.join(self.out, part.name), self.seed, index
            )
            if error:
                self.failures.append(error)
                break
        return wall


def load_modules() -> dict:
    sys.path.insert(0, SRC)
    import ripsbars.cli
    from ripsbars import cloud, dice, fileio, metrics, persistence, render, stats

    return {
        "cli": ripsbars.cli,
        "cloud": cloud,
        "dice": dice,
        "fileio": fileio,
        "metrics": metrics,
        "persistence": persistence,
        "render": render,
        "stats": stats,
    }


def run_cycles(pool: int, seconds: float, body: Callable[[int], None], min_cycles: int) -> int:
    """Call ``body`` on every pool input in turn, in whole cycles.

    Runs at least ``min_cycles`` cycles, then stops before the next cycle would
    end after ``seconds``.  Returns the number of cycles.
    """
    start = time.perf_counter()
    cycles = 0
    while True:
        begin = time.perf_counter()
        for index in range(pool):
            body(index)
        cycles += 1
        now = time.perf_counter()
        if cycles >= min_cycles and now - start + (now - begin) > seconds:
            return cycles


def calibration_work() -> int:
    """Fixed pure-Python work in the style of the reduction: sorted-list merges
    and dict lookups.  It lives here, not in the program, so no change to the
    program moves it."""
    total = 0
    for _ in range(7):
        owner: Dict[int, int] = {}
        a = list(range(0, 1200, 2))
        b = list(range(0, 1200, 3))
        for r in range(12):
            i = j = 0
            out: List[int] = []
            while i < len(a) and j < len(b):
                x, y = a[i], b[j]
                if x < y:
                    out.append(x)
                    i += 1
                elif y < x:
                    out.append(y)
                    j += 1
                else:
                    i += 1
                    j += 1
            out.extend(a[i:])
            out.extend(b[j:])
            for v in out:
                k = owner.get(v)
                if k is None:
                    owner[v] = r
                else:
                    total += k
            a, b = b, out
    return total


def calibration_time() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def run_untraced(runner: Runner, seconds: float) -> Dict[str, float]:
    walls: List[float] = []
    calibrations = [calibration_time()]

    def body(index: int) -> None:
        walls.append(runner.iteration(index))
        calibrations.append(calibration_time())

    pool = runner.workload.pool
    # Two iterations at least, for the quartiles.
    cycles = run_cycles(pool, seconds, body, min_cycles=2 if pool == 1 else 1)
    with open(os.path.join(runner.out, "walls.json"), "w", encoding="utf-8") as fh:
        json.dump({"walls": walls, "calibrations": calibrations}, fh)
    scaled = [
        wall * CALIBRATION_S * 2.0 / (before + after)
        for wall, before, after in zip(walls, calibrations, calibrations[1:])
    ]
    q1, median, q3 = statistics.quantiles(walls, n=4)
    print(f"wall_s: {len(walls)} iterations ({pool} inputs x {cycles} cycles), "
          f"raw q1={q1:.6f} median={median:.6f} q3={q3:.6f} s, calibration loop median "
          f"{statistics.median(calibrations):.6f} s (reference {CALIBRATION_S} s)")
    return {"wall_s": statistics.median(scaled), "peak_rss_mb": runner.rss_mb}


def run_traced(runner: Runner, seconds: float, modules: dict) -> Dict[str, float]:
    tracer = Tracer(modules)
    plain: List[float] = []
    traced: List[float] = []
    layers: Dict[str, List[float]] = defaultdict(list)
    module_times: Dict[str, List[float]] = defaultdict(list)
    counters: Dict[str, float] = {}

    def body(index: int) -> None:
        plain.append(runner.iteration(index))
        tracer.begin(runner.attempted)
        failed_before = len(runner.failures)
        with tracer:
            wall = runner.iteration(index)
        traced.append(wall)
        by_layer, by_module = tracer.layer_times(tracer.iteration, wall)
        for name, value in by_layer.items():
            layers[name].append(value)
        for name, value in by_module.items():
            module_times[name].append(value)
        if index != 0:
            return
        found = tracer.counters(runner.out)
        if not counters:
            counters.update(found)
            reduction = reduction_counters(modules["persistence"], tracer.filtrations())
            if reduction is None:
                print("reduce_matrix(record=True) unavailable: column additions absent",
                      file=sys.stderr)
            else:
                counters.update(reduction)
        elif len(runner.failures) == failed_before and any(
            found[k] != counters[k] for k in found
        ):
            runner.failures.append(f"counters differ on a repeat of input 0: {found}")

    # Two cycles at least, so the counters of input 0 are seen to repeat.
    run_cycles(min(runner.workload.pool, TRACE_POOL), seconds, body, min_cycles=2)
    tracer.results.clear()
    with open(os.path.join(runner.out, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump([vars(s) for s in tracer.spans], fh)
    print("module self time (median s): " + json.dumps(
        {name: round(statistics.median(values), 6) for name, values in module_times.items()}))
    result = {name: statistics.median(values) for name, values in layers.items()}
    result["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    result.update(counters)
    return result


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, summarised in one table."""
    print(f"{'workload':<11} {'wall_s':>10} {'peak_rss_mb':>12} {'setup_s':>8} {'error_rate':>10}")
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<11} failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        res = json.loads(lines[-1])
        m = res["metrics"]
        if args.trace:
            print(f"{name:<11} " + json.dumps({k: v["value"] for k, v in m.items()}))
            continue
        print(f"{name:<11} {m['wall_s']['value']:>8.4f} s {m['peak_rss_mb']['value']:>9.1f} MB "
              f"{m['setup_s']['value']:>6.3f} s {res['failed'] / res['attempted']:>10.4f}")
        status |= 0 if res["correct"] else 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "ripsbars", "cli.py")):
        print(f"no ripsbars sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    values: Dict[str, float] = {}
    if not args.trace:
        setups = setup_times(SETUP_RUNS)
        values["setup_s"] = statistics.median(full * BARE_START_S / bare for bare, full in setups)
        print(f"setup_s: {SETUP_RUNS} starts, raw median "
              f"{statistics.median(full for _, full in setups):.6f} s, bare interpreter median "
              f"{statistics.median(bare for bare, _ in setups):.6f} s (reference {BARE_START_S} s)")
    modules = load_modules()
    runner = Runner(WORKLOADS[args.workload], args.seed, Checker(reference), modules)
    if args.trace:
        values.update(run_traced(runner, args.seconds, modules))
    else:
        values.update(run_untraced(runner, args.seconds))
        values["success_rate"] = 1.0 - len(runner.failures) / runner.attempted

    for failure in runner.failures[:5]:
        print(f"FAILED: {failure}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "error_rate": len(runner.failures) / runner.attempted,
        "bytes_compared": runner.checker.byte_compared,
        "bytes_differing": sorted(runner.checker.byte_mismatches),
        "env": environment(),
    }
    print("info " + json.dumps(info, sort_keys=True))
    metrics = {}
    for spec in declared:
        if spec["name"] not in values:
            print(f"metric {spec['name']} not measured", file=sys.stderr)
            if not args.trace:
                return 3
            continue
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']} = {values[spec['name']]:.6g} {spec['unit']}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
