"""Synthetic planar data: uniform samples from a disk with circular holes.

Sampling is rejection from the outer circle's bounding square, which is
exactly uniform on the admissible region.  All randomness flows through a
seeded generator; the algorithm identifier is recorded in output metadata so
runs can be reproduced bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import fileio
from .fileio import ParseError, fmt
from .metrics import euclidean

#: Identifier of the pseudo-random algorithm behind ``sample_region``.
RNG_ALGORITHM = "numpy-pcg64"

#: Default seed used by the CLI when --seed is not given.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Circle:
    center: Tuple[float, float]
    radius: float


@dataclass(frozen=True)
class Region:
    """A disk minus a collection of circular holes."""

    outer: Circle
    holes: Tuple[Circle, ...] = field(default_factory=tuple)

    def admissible_area(self) -> float:
        return math.pi * (
            self.outer.radius**2 - sum(h.radius**2 for h in self.holes)
        )


def validate_region(region: Region) -> None:
    """Reject degenerate geometry: holes must sit strictly inside the outer
    circle and be pairwise disjoint, all radii positive."""
    if region.outer.radius <= 0.0:
        raise ValueError("outer radius must be positive")
    for h in region.holes:
        if h.radius <= 0.0:
            raise ValueError("hole radius must be positive")
        if math.dist(h.center, region.outer.center) + h.radius >= region.outer.radius:
            raise ValueError(f"hole at {h.center} not strictly inside the outer circle")
    hs = region.holes
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            if math.dist(hs[i].center, hs[j].center) < hs[i].radius + hs[j].radius:
                raise ValueError(f"holes {i} and {j} overlap")
    if region.admissible_area() <= 0.0:
        raise ValueError("region has no admissible area")


def four_hole_disk() -> Region:
    """The canonical experiment region: unit disk with four symmetric holes.

    Outer circle of radius 1 at the origin; holes of radius 0.18 centered at
    (±0.45, ±0.45).  Fixed so experiments are reproducible across runs.
    """
    return Region(
        outer=Circle((0.0, 0.0), 1.0),
        holes=(
            Circle((0.45, 0.45), 0.18),
            Circle((0.45, -0.45), 0.18),
            Circle((-0.45, 0.45), 0.18),
            Circle((-0.45, -0.45), 0.18),
        ),
    )


def sample_region(region: Region, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Draw ``n`` independent uniform points from the region, as an (n, 2) array.

    Deterministic for a fixed (region, n, seed).  Candidates are drawn in
    batches from the bounding square and kept in draw order when strictly
    inside the outer circle and outside every closed hole; a draw cap guards
    against regions whose admissible area is a vanishing fraction of the
    square.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 points, got {n}")
    validate_region(region)
    rng = np.random.default_rng(seed)
    (cx, cy), r = region.outer.center, region.outer.radius
    centers = np.array([c.center for c in (region.outer,) + region.holes])
    hole_radii = np.array([h.radius for h in region.holes])[:, None]
    chunks: List[np.ndarray] = []
    have = 0
    max_draws = max(100_000, 1_000 * n)
    drawn = 0
    while have < n:
        batch = min(4 * (n - have) + 64, max_draws - drawn)
        if batch <= 0:
            raise ValueError(
                f"rejection sampling exceeded {max_draws} draws; "
                "region admissible area too small"
            )
        xs = rng.uniform(cx - r, cx + r, size=batch)
        ys = rng.uniform(cy - r, cy + r, size=batch)
        drawn += batch
        # One row of candidate distances per circle, outer circle first.
        dist = euclidean(xs - centers[:, :1], ys - centers[:, 1:])
        keep = (dist[0] < r) & (dist[1:] > hole_radii).all(axis=0)
        chunks.append(np.column_stack((xs[keep], ys[keep]))[: n - have])
        have += len(chunks[-1])
    return np.concatenate(chunks)


def write_points_csv(
    path: str, points: np.ndarray, config: Optional[Dict[str, Any]] = None
) -> None:
    lines = fileio.metadata_lines(config)
    lines.append(f"# rng {RNG_ALGORITHM}")
    lines.append("x,y")
    for x, y in np.asarray(points, dtype=float).tolist():
        lines.append(f"{fmt(x)},{fmt(y)}")
    fileio.write_text(path, lines)


def read_points_csv(path: str, lines: List[str]) -> np.ndarray:
    """Parse the ``lines`` of the points CSV at ``path`` into an (n, 2) float64
    array; ``path`` only labels errors."""
    points: List[Tuple[float, float]] = []
    saw_header = False
    for lineno, text in fileio.data_lines(lines):
        if not saw_header:
            if [t.strip().lower() for t in text.split(",")] != ["x", "y"]:
                raise ParseError(path, lineno, "expected header 'x,y'")
            saw_header = True
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'x,y' pair, got {text!r}")
        points.append(
            (
                fileio.parse_float(path, lineno, parts[0]),
                fileio.parse_float(path, lineno, parts[1]),
            )
        )
    if not points:
        raise ParseError(path, len(lines) or 1, "no points found")
    return np.array(points, dtype=float)


def looks_like_points_csv(lines: List[str]) -> bool:
    """True when the first data line of a file's ``lines`` is the 'x,y' points header."""
    for _, text in fileio.data_lines(lines):
        return [t.strip().lower() for t in text.split(",")] == ["x", "y"]
    return False
