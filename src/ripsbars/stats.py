"""Per-dimension barcode statistics and multi-metric comparison tables.

Statistics are defined on normalized barcodes only (ε rescaled to [0, 1]),
so lifespans are comparable across metrics.  A bar lives for
death − birth; an open bar lives to the right edge, 1 − birth.  Bar counts
include open bars; zero-length pairs were already excluded upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fileio
from .fileio import fmt
from .persistence import Barcode


@dataclass(frozen=True)
class BarStats:
    """Count and lifespans (average, shortest, longest) of one dimension of
    one barcode.

    The ``*_lifespan`` fields are None when there are no bars, which tables
    render as '-' — distinct from bars of tiny positive length.
    """

    dim: int
    count: int
    avg_lifespan: Optional[float]
    min_lifespan: Optional[float]
    max_lifespan: Optional[float]


def bar_stats(bc: Barcode, dim: int) -> BarStats:
    """Summarize the bars of one dimension; rejects un-normalized input."""
    return _stats_by_dim(bc, (dim,))[0]


def _stats_by_dim(bc: Barcode, dims: Sequence[int]) -> List[BarStats]:
    """:func:`bar_stats` of each dimension in ``dims``.  The runs are
    already sorted by dimension, so each dimension is one slice of them; a
    run counts ``count`` bars.  The average is a left-to-right sum over the
    bars in order, each run's span repeated ``count`` times, so its bits
    do not depend on how a Python version's ``sum`` rounds."""
    if not bc.normalized:
        raise ValueError("bar statistics require a normalized barcode")
    n = bc.n_bars
    dim, count = bc.dim[:n], bc.count[:n]
    span = np.where(bc.open[:n], 1.0 - bc.birth[:n], bc.death[:n] - bc.birth[:n])
    cells = []
    for d, lo, hi in zip(dims, np.searchsorted(dim, dims), np.searchsorted(dim, dims, "right")):
        s = span[lo:hi].repeat(count[lo:hi])  # a span per bar
        cells.append(
            BarStats(d, len(s), float(np.cumsum(s)[-1]) / len(s), float(s.min()), float(s.max()))
            if len(s) else BarStats(d, 0, None, None, None)
        )
    return cells


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side BarStats per (metric, dimension).

    ``metrics`` preserves input order; ``dims`` runs from 0 to the highest
    dimension holding a bar in any run, so empty trailing dimensions do not
    pad the table.
    """

    metrics: Tuple[str, ...]
    dims: Tuple[int, ...]
    cells: Dict[Tuple[str, int], BarStats]


def check_runs(names: Sequence[str], point_counts: Sequence[int] = ()) -> None:
    """Refuse duplicate run names, and runs over different numbers of points."""
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate run names: {list(names)}")
    sizes = sorted(set(point_counts))
    if len(sizes) > 1:
        raise ValueError(f"runs describe different point counts: {sizes}")


def compare(runs: Sequence[Tuple[str, Barcode]]) -> ComparisonReport:
    """Merge several runs over the same point set into one report.

    Requires at least two runs; all must describe the same number of
    points, otherwise the comparison is meaningless and rejected.
    """
    if len(runs) < 2:
        raise ValueError(f"compare needs at least 2 runs, got {len(runs)}")
    check_runs([name for name, _ in runs], [bc.n_points for _, bc in runs])
    return stats_report(runs)


def stats_report(runs: Sequence[Tuple[str, Barcode]]) -> ComparisonReport:
    """The report on any number of runs ≥ 1, with distinct names."""
    if not runs:
        raise ValueError("need at least one barcode")
    names = [name for name, _ in runs]
    check_runs(names)
    for name, bc in runs:
        if not bc.normalized:
            raise ValueError(f"run {name!r}: bar statistics require a normalized barcode")
    top = max((bc.top_dim() for _, bc in runs), default=-1)
    dims = tuple(range(max(top, 0) + 1))
    cells = {
        (name, s.dim): s for name, bc in runs for s in _stats_by_dim(bc, dims)
    }
    return ComparisonReport(metrics=tuple(names), dims=dims, cells=cells)


STATS_HEADER = "metric,dim,count,avg,min,max"


def _cells(s: BarStats, number: Callable[[float], str]) -> Tuple[str, ...]:
    """Count, avg, min and max of one cell, lifespans rendered by ``number``."""
    if s.count == 0:
        return ("0", "-", "-", "-")
    spans = (s.avg_lifespan, s.min_lifespan, s.max_lifespan)
    return (str(s.count),) + tuple(number(x) for x in spans)


def write_stats_csv(
    path: str, report: ComparisonReport, config: Optional[Dict[str, Any]] = None
) -> None:
    lines = fileio.metadata_lines(config)
    lines.append(STATS_HEADER)
    for dim in report.dims:
        for name in report.metrics:
            cells = _cells(report.cells[(name, dim)], fmt)
            lines.append(",".join((name, str(dim)) + cells))
    fileio.write_text(path, lines)


def format_stats_table(report: ComparisonReport) -> str:
    """Aligned plain-text table, one row per (dimension, metric)."""
    short = lambda x: format(x, ".6g")
    header = ("dim", "metric", "count", "avg", "min", "max")
    rows: List[Tuple[str, ...]] = [header]
    for dim in report.dims:
        for name in report.metrics:
            rows.append((str(dim), name) + _cells(report.cells[(name, dim)], short))
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    out = []
    for r in rows:
        out.append("  ".join(r[c].ljust(widths[c]) for c in range(len(header))).rstrip())
    return "\n".join(out) + "\n"
