"""Vietoris–Rips filtrations built incrementally over distance thresholds.

The complex at threshold ε is the flag complex of the graph whose edges are
point pairs at distance ≤ ε (closed condition, so births coincide with
matrix entries), truncated at ``max_dim``.  Simplices are appended threshold
by threshold: when an edge (u, v) arrives, every clique it completes is
exactly the edge together with a clique inside the common neighborhood of u
and v, so each simplex is created precisely once — when its last edge shows
up.  Within one threshold, new simplices are ordered by (dimension,
vertex tuple), which keeps every face in front of its cofaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .metrics import DistanceMatrix


@dataclass(frozen=True)
class Simplex:
    """One simplex of the filtration.

    ``faces`` holds the positions in ``Filtration.simplices`` of the
    (dim−1)-faces in increasing order — the boundary matrix is read straight
    off this field.  Vertices have no faces and carry their point index in
    ``vertices``.
    """

    dim: int
    vertices: Tuple[int, ...]
    faces: Tuple[int, ...]
    birth: float


@dataclass(frozen=True)
class ThresholdSpan:
    """Slice [start, end) of the simplex list created at one threshold."""

    threshold: float
    start: int
    end: int


class Filtration:
    """Growing flag complex with union-find connectivity tracking."""

    def __init__(self, n_points: int, max_dim: int, max_distance: float):
        if n_points < 1:
            raise ValueError("need at least one point")
        if max_dim < 0:
            raise ValueError("max_dim must be >= 0")
        self.n_points = n_points
        self.max_dim = max_dim
        #: Maximum pairwise distance of the source matrix (pre-truncation);
        #: the normalization divisor for barcodes.
        self.max_distance = max_distance
        self.simplices: List[Simplex] = []
        self.thresholds: List[float] = []
        self.spans: List[ThresholdSpan] = []
        self.connected_at: Optional[float] = 0.0 if n_points == 1 else None
        self.stopped_early = False
        self._index: Dict[Tuple[int, ...], int] = {}
        self._adj: List[Set[int]] = [set() for _ in range(n_points)]
        self._parent = list(range(n_points))
        self._components = n_points
        for i in range(n_points):
            self._append((i,), 0.0)
        self.spans.append(ThresholdSpan(0.0, 0, n_points))

    def __len__(self) -> int:
        return len(self.simplices)

    @property
    def components(self) -> int:
        return self._components

    @property
    def span_end(self) -> float:
        """Last processed threshold (0 when no edges were processed)."""
        return self.thresholds[-1] if self.thresholds else 0.0

    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def _union(self, i: int, j: int) -> None:
        ri, rj = self._find(i), self._find(j)
        if ri != rj:
            self._parent[max(ri, rj)] = min(ri, rj)
            self._components -= 1

    def _append(self, vertices: Tuple[int, ...], birth: float) -> None:
        dim = len(vertices) - 1
        if dim == 0:
            faces: Tuple[int, ...] = ()
        else:
            faces = tuple(
                sorted(
                    self._index[vertices[:k] + vertices[k + 1:]]
                    for k in range(len(vertices))
                )
            )
        self._index[vertices] = len(self.simplices)
        self.simplices.append(Simplex(dim=dim, vertices=vertices, faces=faces, birth=birth))


def sorted_edges(m: DistanceMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All pairs i < j in ascending (d, i, j) order, as arrays ``(i, j, d,
    starts)``; ``starts`` indexes the first edge of each distinct distance."""
    i, j = np.triu_indices(m.n, k=1)
    d = m.entries[i, j]
    # Stable, so equal distances keep the (i, j) order of triu_indices.
    order = np.argsort(d, kind="stable")
    i, j, d = i[order], j[order], d[order]
    new = np.ones(len(d), dtype=bool)
    new[1:] = d[1:] != d[:-1]
    return i, j, d, np.flatnonzero(new)


def expand_increment(
    f: Filtration, new_edges: Sequence[Tuple[int, int]], birth: float
) -> Filtration:
    """Insert the edges born at ``birth`` and every clique they complete.

    ``new_edges`` are pairs ``(i, j)`` with ``i < j`` in ascending order, as
    :func:`build_filtration` takes them from :func:`sorted_edges`.  For each
    edge, the cliques inside the common neighborhood of its endpoints (at the
    moment of insertion) name exactly the new simplices having that edge as
    their last-arriving edge.
    The batch is then sorted by (dimension, vertex tuple) before it is
    appended, so faces always precede cofaces in the filtration order.
    """
    batch: List[Tuple[int, ...]] = []
    adj = f._adj

    def grow(base: Tuple[int, int], chosen: Tuple[int, ...], cands: List[int]) -> None:
        for pos, w in enumerate(cands):
            cell = chosen + (w,)
            batch.append(tuple(sorted(base + cell)))
            if len(cell) + 2 <= f.max_dim:
                grow(base, cell, [z for z in cands[pos + 1:] if z in adj[w]])

    for u, v in new_edges:
        if v in adj[u]:
            raise ValueError(f"edge ({u}, {v}) already present")
        if f.max_dim >= 1:
            batch.append((u, v))
            if f.max_dim >= 2:
                common = sorted(adj[u] & adj[v])
                if common:
                    grow((u, v), (), common)
        # Adjacency and connectivity always follow the neighborhood graph,
        # even when the truncation excludes the edge simplices themselves.
        adj[u].add(v)
        adj[v].add(u)
        f._union(u, v)

    batch.sort(key=lambda verts: (len(verts), verts))
    for verts in batch:
        f._append(verts, birth)
    return f


def build_filtration(
    m: DistanceMatrix, max_dim: int = 2, stop_when_connected: bool = False
) -> Filtration:
    """Run the full pipeline: thresholds, edges, flag expansion, stopping.

    With ``stop_when_connected`` the construction halts after the first
    threshold at which the complex has a single connected component (that
    threshold is processed completely).  ``connected_at`` records that
    threshold in either mode.
    """
    f = Filtration(n_points=m.n, max_dim=max_dim, max_distance=m.max_distance())
    i, j, d, starts = sorted_edges(m)
    for lo, hi in zip(starts, np.append(starts[1:], len(d))):
        eps = float(d[lo])
        start = len(f.simplices)
        expand_increment(f, list(zip(i[lo:hi].tolist(), j[lo:hi].tolist())), eps)
        f.thresholds.append(eps)
        f.spans.append(ThresholdSpan(eps, start, len(f.simplices)))
        if f.connected_at is None and f.components == 1:
            f.connected_at = eps
        if stop_when_connected and f.components == 1:
            f.stopped_early = hi < len(d)
            break
    return f

