"""Planar metrics and distance matrices.

Distances are stored as float64.  A matrix may be a pseudometric: distance 0
between distinct points is legal everywhere downstream, only negativity and
asymmetry are hard errors.  Symmetry is checked with a small tolerance to
absorb floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import fileio
from .fileio import ParseError, fmt

#: Default slack for symmetry and triangle-inequality checks on float-derived
#: matrices.  Use 0.0 for matrices assembled from exact integer/rational arithmetic.
TRIANGLE_TOL = 1e-9


def euclidean(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # math.hypot, not np.hypot: the two differ in the last ulp on some pairs.
    return np.fromiter(map(math.hypot, dx, dy), float, len(dx))


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


def pairwise(n: int, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Symmetric (n, n) matrix with zero diagonal from ``fn(i, j)``, which is
    called once with the index arrays of all upper-triangle pairs i < j."""
    i, j = np.triu_indices(n, k=1)
    d = np.zeros((n, n))
    d[i, j] = d[j, i] = fn(i, j)
    return d


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix of pairwise distances.

    ``entries`` is an (n, n) float64 array.  ``labels``, when present, names
    each point (used by the dice domain, where points are dice).
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


def build_distance_matrix(points: np.ndarray, metric: str) -> DistanceMatrix:
    """Evaluate the planar ``metric`` (a name from :data:`PLANAR_METRICS`) on
    every pair of rows of the (n, 2) array ``points``."""
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
    x, y = pts[:, 0], pts[:, 1]
    d = pairwise(len(pts), lambda i, j: fn(x[i] - x[j], y[i] - y[j]))
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
    for row in m.entries:
        lines.append(",".join(fmt(v) for v in row))
    fileio.write_text(path, lines)


def read_distance_csv(
    path: str, lines: List[str], tol: float = TRIANGLE_TOL
) -> Tuple[DistanceMatrix, Dict[str, Any]]:
    """Parse the ``lines`` of the distance-matrix CSV at ``path`` (which only
    labels errors), validating shape and symmetry within ``tol``.  Returns
    the matrix and its header, as :func:`fileio.parse_metadata` gives it."""
    meta = fileio.parse_metadata(path, lines)
    rows: List[List[float]] = []
    row_lines: List[int] = []
    for lineno, text in fileio.data_lines(lines):
        rows.append([fileio.parse_float(path, lineno, tok) for tok in text.split(",")])
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
    if asym > tol:
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
