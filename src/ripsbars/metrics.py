"""Planar metrics and distance matrices.

Distances are stored as float64.  A matrix may be a pseudometric: distance 0
between distinct points is legal everywhere downstream.  A
:class:`DistanceMatrix` must equal its transpose exactly, with a zero
diagonal and no negative entry; a file's matrix may miss symmetry by a small
tolerance for rounding, and is symmetrized on reading, but a nonzero diagonal
or a negative entry there is a hard error that names the file and line.

Euclidean distances are ``math.hypot`` of each pair's coordinate
differences, bit for bit, computed in numpy: :func:`euclidean` replays, one
array operation at a time, the IEEE sequence of CPython's ``vector_norm``
(``Modules/mathmodule.c``).  It scales by a power of two, squares exactly
with Dekker's split, sums with fast two-sum and lossy error terms, takes the
square root and applies one differential correction.  Entries whose larger
|difference| is below 2**-1024, where CPython 3.11 and 3.12 take different
branches, fall back to ``math.hypot`` one by one, as do zeros and non-finite
values.  A pure-Python replay of the sequence matched ``math.hypot`` on 1M
random pairs each on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.13; the numpy
path was checked on 3.11.7.  ``np.hypot`` is no substitute: it differs in
the last bit on about 0.6% of pairs, which would change the bytes of every
pinned output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import fileio
from .fileio import ParseError, fmt

#: Slack for the symmetry check on a matrix read from a file, and the default
#: slack of the triangle-inequality check in the tests
#: (``tests/oracles.py:validate_pseudometric``) on float-derived matrices.
TRIANGLE_TOL = 1e-9


#: Veltkamp's splitting constant 2**27 + 1: ``_square`` cuts a float64 into
#: two halves of at most 26 significant bits each.
_SPLIT = 134217729.0


def _square(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dekker's exact square (1971): ``x * x == hi + lo``, barring underflow.
    The products of the 26-bit halves are exact, so CPython's
    ``hh * hl + hl * hh`` is ``2 * hh * hl``."""
    t = x * _SPLIT
    hh = t - (t - x)
    hl = x - hh
    p, q = hh * hh, 2.0 * hh * hl
    hi = p + q
    return hi, p - hi + q + hl * hl


def euclidean(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot(dx, dy)`` per entry, bit for bit (see the module notes)."""
    ax, ay = np.abs(dx), np.abs(dy)
    # The sequence holds for 2**-1024 <= max(ax, ay) < inf; any other entry
    # comes out non-finite (0/0 at zero, an infinite scale below 2**-1024)
    # and is handed to math.hypot, as is an overflowing one.
    with np.errstate(all="ignore"):
        scale = np.ldexp(1.0, -np.frexp(np.maximum(ax, ay))[1])
        csum, frac1, frac2 = 1.0, 0.0, 0.0
        for a in (ax, ay):
            hi, lo = _square(a * scale)
            s = csum + hi  # fast two-sum: csum >= 1 > hi
            frac1, frac2, csum = frac1 + lo, frac2 + ((csum - s) + hi), s
        h = np.sqrt(csum - 1.0 + (frac1 + frac2))
        hi, lo = _square(h)  # CPython adds the product -h * h: its exact negation
        s = csum - hi
        frac1, frac2, csum = frac1 - lo, frac2 + ((csum - s) - hi), s
        h = (h + (csum - 1.0 + (frac1 + frac2)) / (2.0 * h)) / scale
    rare = ~np.isfinite(h)
    if rare.any():
        h[rare] = list(map(math.hypot, dx[rare].tolist(), dy[rare].tolist()))
    return h


def taxicab(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return np.abs(dx) + np.abs(dy)


def supremum(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(dx), np.abs(dy))


#: Planar metrics as functions of the coordinate differences of point pairs.
PLANAR_METRICS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "euclidean": euclidean,
    "taxicab": taxicab,
    "supremum": supremum,
}


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix of pairwise distances.

    ``entries`` is an (n, n) float64 array, refused unless it is finite,
    exactly equal to its transpose (the filtration reads whole rows of it
    as well as its upper triangle), zero on the diagonal and nowhere
    negative (``-0.0`` counts as zero, and is held as ``+0.0``, so a birth
    read off the distinct entries is the entry itself).  ``labels``, when
    present, names each point (used by the dice domain, where points are
    dice).
    """

    entries: np.ndarray
    labels: Optional[Tuple[str, ...]] = None
    metric: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("distance matrix must have at least one point")
        if not np.isfinite(arr).all():
            raise ValueError("distance matrix contains non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValueError("distance matrix is not symmetric")
        if arr.min() < 0.0 or np.diagonal(arr).any():
            raise ValueError("distance matrix has a negative entry or a nonzero diagonal")
        if np.signbit(arr).any():
            arr = arr + 0.0  # -0.0 + 0.0 is +0.0: every zero is held as +0.0
        object.__setattr__(self, "entries", arr)
        if self.labels is not None and len(self.labels) != arr.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {arr.shape[0]} points"
            )

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def max_distance(self) -> float:
        return float(self.entries.max())


#: Entries per block of :func:`build_distance_matrix`.  Each temporary of a
#: metric then takes 32 KB, which the allocator reuses from block to block; a
#: temporary over the whole matrix is mapped fresh and page-faulted on every
#: call.
_BLOCK = 4096


def build_distance_matrix(points: np.ndarray, metric: str) -> DistanceMatrix:
    """Evaluate the planar ``metric`` (a name from :data:`PLANAR_METRICS`) on
    every pair of rows of the (n, 2) array ``points``.  Blocks of rows are
    evaluated from the diagonal rightwards and mirrored below it.  Points
    whose x span plus y span overflows float64 are refused up front: that
    sum bounds every distance under every metric."""
    try:
        fn = PLANAR_METRICS[metric]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(PLANAR_METRICS)}"
        ) from None
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError(f"need an (n, 2) array of n >= 1 points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite coordinates")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    with np.errstate(over="ignore"):
        wide = not np.isfinite((hi - lo).sum())
    if wide:
        raise ValueError(
            f"coordinate span x {fmt(lo[0])}..{fmt(hi[0])}, y {fmt(lo[1])}..{fmt(hi[1])} "
            "is too wide: the distances would overflow float64"
        )
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    d = np.empty((n, n))
    r = 0
    while r < n:
        end = r + max(1, _BLOCK // (n - r))
        block = fn(x[r:end, None] - x[r:], y[r:end, None] - y[r:])
        d[r:end, r:] = block
        d[r:, r:end] = block.T
        r = end
    return DistanceMatrix(entries=d, metric=metric)


def write_distance_csv(
    path: str, m: DistanceMatrix, config: Optional[Dict[str, Any]] = None
) -> None:
    """Write n lines of n comma-separated values, preceded by metadata.

    Point labels, when present, are recorded in a comment line so the matrix
    body stays purely numeric.  That line is comma-separated, so a label
    holding a comma (a die with a face above 9) is refused up front.
    """
    for label in m.labels or ():
        if "," in label:
            raise ValueError(f"label {label!r} contains ',', the label separator")
    lines = fileio.metadata_lines(config)
    if m.metric:
        lines.append(f"# metric {m.metric}")
    if m.labels is not None:
        lines.append("# labels " + ",".join(m.labels))
    lines.extend(map(",".join, fileio.fmt_array(m.entries).tolist()))
    fileio.write_text(path, lines)


def read_distance_csv(path: str, lines: List[str]) -> Tuple[DistanceMatrix, Dict[str, Any]]:
    """Parse the ``lines`` of the distance-matrix CSV at ``path`` (which only
    labels errors), validating shape and symmetry within ``TRIANGLE_TOL``.  Returns
    the matrix and its header, as :func:`fileio.parse_metadata` gives it."""
    meta = fileio.parse_metadata(path, lines)
    values: Dict[str, float] = {}  # each distinct token that parsed, so each parses once
    rows: List[List[float]] = []
    row_lines: List[int] = []
    for lineno, text in fileio.data_lines(lines):
        tokens = text.split(",")
        for tok in tokens:
            if tok not in values:
                values[tok] = fileio.parse_float(path, lineno, tok)
        rows.append(list(map(values.__getitem__, tokens)))
        row_lines.append(lineno)
    if not rows:
        raise ParseError(path, len(lines) or 1, "no matrix rows found")
    n = len(rows)
    for lineno, row in zip(row_lines, rows):
        if len(row) != n:
            raise ParseError(
                path, lineno, f"expected {n} columns (square matrix), got {len(row)}"
            )
    arr = np.array(rows, dtype=float)
    asym = np.abs(arr - arr.T).max()
    if asym > TRIANGLE_TOL:
        raise ParseError(path, row_lines[0], f"matrix not symmetric (max gap {asym:.3g})")
    if (np.diag(arr) != 0.0).any():
        raise ParseError(path, row_lines[0], "matrix diagonal must be zero")
    if arr.min() < 0.0:
        raise ParseError(path, row_lines[0], "matrix has negative entries")
    labels = meta.get("labels")
    if labels is not None and len(labels) != n:
        raise ParseError(path, meta["lines"]["labels"], f"{len(labels)} labels for {n} points")
    # Symmetrize exactly so downstream comparisons see identical (i,j)/(j,i).
    arr = np.maximum(arr, arr.T)
    return DistanceMatrix(entries=arr, labels=labels, metric=meta.get("metric", "")), meta
