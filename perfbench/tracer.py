"""Outside-in tracing: time calls into each layer of ``ripsbars`` from outside.

The tracer replaces the module attributes that the CLI and the pipeline
resolve at call time (``cli.build_filtration``, ``persistence.reduce_matrix``
and so on) with wrappers that record a span per call, and restores them on
exit.  Nothing in ``src/`` changes.  Spans stay in memory; counters are
derived from the recorded return values after the iteration's clock stops,
so bookkeeping never lands inside a timed span.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute, layer).  The modules are those of src/ripsbars; the
# layers are the pipeline stages of ROADMAP.md, grouped so that every
# workload exercises every layer: sampling or enumerating the data domain,
# distances, filtration, boundary, reduction, pairing, and reading and
# writing files (statistics and plots are formatted on the way out).
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("cloud", "four_hole_disk", "domain.build_s"),
    ("cloud", "sample_region", "domain.build_s"),
    ("dice", "enumerate_dice", "domain.build_s"),
    ("dice", "build_beating_graph", "domain.build_s"),
    ("dice", "non_transitive_subset", "domain.build_s"),
    ("dice", "induced_subgraph", "domain.build_s"),
    ("dice", "to_dot", "domain.build_s"),
    ("metrics", "build_distance_matrix", "distance.build_s"),
    ("dice", "similarity_distance_matrix", "distance.build_s"),
    ("dice", "euclidean_dice_distance_matrix", "distance.build_s"),
    ("dice", "foliation_symmetry_distance_matrix", "distance.build_s"),
    ("cli", "build_filtration", "filtration.build_s"),
    ("persistence", "total_boundary_matrix", "persistence.boundary_s"),
    ("persistence", "reduce_matrix", "persistence.reduce_s"),
    ("persistence", "extract_pairs", "persistence.pairs_s"),
    ("cloud", "read_points_csv", "input.read_s"),
    ("cloud", "looks_like_points_csv", "input.read_s"),
    ("metrics", "read_distance_csv", "input.read_s"),
    ("persistence", "read_barcode_csv", "input.read_s"),
    ("fileio", "read_lines", "input.read_s"),
    ("cloud", "write_points_csv", "output.write_s"),
    ("metrics", "write_distance_csv", "output.write_s"),
    ("persistence", "write_barcode_csv", "output.write_s"),
    ("stats", "write_stats_csv", "output.write_s"),
    ("fileio", "write_text", "output.write_s"),
    ("stats", "compare", "output.write_s"),
    ("stats", "stats_report", "output.write_s"),
    ("stats", "format_stats_table", "output.write_s"),
    ("render", "barcode_svg", "output.write_s"),
)

LAYER_TIMES = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    iteration: int


class Tracer:
    """Collects spans and the return values counters are derived from."""

    def __init__(self, modules: Dict[str, Any]):
        self.modules = modules
        self.spans: List[Span] = []
        self.iteration = -1
        self.results: List[Tuple[str, Any, Any]] = []  # (function, first arg, result)
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Callable]] = []

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack, results = self.spans, self._stack, self.results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.iteration))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index].start, spans[index].end = start, end
            results.append((name, args[0] if args else None, result))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer in WRAPPED:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            home = original.__module__.rsplit(".", 1)[-1]  # e.g. filtration for cli.build_filtration
            setattr(module, attr, self._wrap(original, f"{home}.{attr}", layer))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin(self, iteration: int) -> None:
        self.iteration = iteration
        self.results.clear()

    def layer_times(self, iteration: int, wall: float) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Self time per layer (plus ``cli.other_s``) and per module in one iteration."""
        layers = dict.fromkeys(LAYER_TIMES, 0.0)
        modules: Dict[str, float] = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s.iteration == iteration]
        child = {i: 0.0 for i, _ in mine}
        covered = 0.0
        for _, s in mine:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
            else:
                covered += s.end - s.start
        for i, s in mine:
            own = (s.end - s.start) - child[i]
            layers[s.layer] += own
            modules[s.name.split(".")[0]] += own
        layers["cli.other_s"] = wall - covered
        return layers, dict(modules)

    def counters(self, out_root: str) -> Dict[str, float]:
        """Deterministic counts of the last iteration's work."""
        c: Dict[str, float] = {
            "filtration.simplices": 0,
            **{f"filtration.simplices.d{d}": 0 for d in range(6)},
            "filtration.thresholds": 0,
            "filtration.max_batch": 0,
            "filtration.stopped_early": 0,
            "persistence.bars": 0,
            "persistence.zero_length": 0,
            "metrics.pairs": 0,
            "dice.ntd": 0,
            "fileio.bytes_read": 0,
        }
        for name, arg, result in self.results:
            if name == "filtration.build_filtration":
                c["filtration.simplices"] += len(result.simplices)
                for s in result.simplices:
                    if s.dim <= 5:
                        c[f"filtration.simplices.d{s.dim}"] += 1
                c["filtration.thresholds"] += len(result.thresholds)
                c["filtration.max_batch"] = max(
                    [c["filtration.max_batch"]] + [s.end - s.start for s in result.spans[1:]]
                )
                c["filtration.stopped_early"] += int(result.stopped_early)
            elif name == "persistence.extract_pairs":
                c["persistence.bars"] += len(result.bars)
                c["persistence.zero_length"] += len(result.zero_length)
            elif name == "metrics.build_distance_matrix":
                c["metrics.pairs"] += result.n * (result.n - 1) // 2
            elif name == "dice.non_transitive_subset":
                c["dice.ntd"] += len(result)
            elif name == "fileio.read_lines":
                c["fileio.bytes_read"] += os.path.getsize(arg)
        c["fileio.bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_root) for f in files
        )
        return c

    def filtrations(self) -> List[Any]:
        return [r for name, _, r in self.results if name == "filtration.build_filtration"]


def reduction_counters(persistence: Any, filtrations: List[Any]) -> Optional[Dict[str, float]]:
    """Column additions and the share clearing would skip, from ``record=True``.

    Runs untimed, outside any iteration: the operation log inflates both time
    and memory.  An addition is clearable when it lands on a column that ends
    up zero and is the pivot row of a later column.  Returns None when the
    reduction no longer offers an operation log.
    """
    additions = clearable = 0
    for f in filtrations:
        try:
            reduced, ops = persistence.reduce_matrix(persistence.total_boundary_matrix(f), record=True)
        except (TypeError, AttributeError):
            return None
        if ops is None:
            return None
        pivots = {col[-1] for col in reduced.columns if col}
        additions += len(ops)
        clearable += sum(1 for _, j in ops if not reduced.columns[j] and j in pivots)
    return {
        "persistence.column_additions": additions,
        "persistence.clearable_share": clearable / additions if additions else 0.0,
    }
