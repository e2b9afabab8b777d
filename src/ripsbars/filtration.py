"""Vietoris–Rips filtrations over the sorted pairwise distances.

The complex at threshold ε is the flag complex of the graph whose edges are
point pairs at distance ≤ ε (closed condition, so births coincide with
matrix entries), truncated at ``max_dim``.  :func:`build_filtration` works in
three steps.  A union-find over the sorted edges (:func:`joins`) finds where
the neighborhood graph becomes connected, so a stopped filtration knows its
last threshold before any clique is built.  Each edge up to that cut then
grows the cliques it completes: they are the edge together with a clique
inside the common neighborhood of its endpoints, so each simplex is created
exactly once, born at the distance of its last edge.  One sort of the
(birth, dimension, vertex tuple) records gives the order, which keeps every
face in front of its cofaces, and the threshold spans are read off that
list.  Faces are not stored: a facet is the vertex tuple less one vertex.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

import numpy as np

from .metrics import DistanceMatrix


class Simplex(NamedTuple):
    """One simplex, ``vertices`` ascending; the field order is the filtration order."""

    birth: float
    dim: int
    vertices: Tuple[int, ...]


@dataclass(frozen=True)
class ThresholdSpan:
    """Slice [start, end) of the simplex list created at one threshold."""

    threshold: float
    start: int
    end: int


@dataclass(frozen=True)
class Filtration:
    """A flag complex in filtration order, as :func:`build_filtration` returns it.

    ``spans[0]`` holds the vertices; ``spans[k]`` the simplices born at
    ``thresholds[k - 1]``.  ``max_distance`` is the maximum pairwise distance
    of the source matrix (before any stop), the normalization divisor for
    barcodes.
    """

    n_points: int
    max_dim: int
    max_distance: float
    simplices: List[Simplex]
    thresholds: List[float]
    spans: List[ThresholdSpan]
    stopped_early: bool

    @property
    def span_end(self) -> float:
        """Last processed threshold (0 when no edges were processed)."""
        return self.thresholds[-1] if self.thresholds else 0.0


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


def joins(n: int, edges: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Vertex → index in ``edges`` of the edge that merged its component into
    an older one.

    Components are named by their smallest vertex; an edge joining two of
    them ends the one with the larger name.  The scan stops as soon as the
    ``n`` points are connected, so no edge past that one is read.
    """
    parent = list(range(n))
    merged: Dict[int, int] = {}
    for k, ends in enumerate(edges):
        roots = []
        for v in ends:
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            roots.append(v)
        old, young = sorted(roots)
        if old != young:
            parent[young] = old
            merged[young] = k
            if len(merged) == n - 1:
                break
    return merged


def build_filtration(
    m: DistanceMatrix, max_dim: int = 2, stop_when_connected: bool = False
) -> Filtration:
    """The flag complex of ``m`` up to dimension ``max_dim``, in filtration order.

    With ``stop_when_connected`` the filtration ends after the first
    threshold at which the neighborhood graph is connected (that threshold
    is processed completely); connectivity follows the graph even when
    ``max_dim`` is 0 and no edge simplex is kept.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    n = m.n
    i, j, d, starts = sorted_edges(m)
    end = len(d)
    if stop_when_connected and n > 1:
        last = max(joins(n, zip(i, j)).values())
        end = int(np.searchsorted(d, d[last], side="right"))

    simplices = [Simplex(0.0, 0, (v,)) for v in range(n)]
    adj: List[Set[int]] = [set() for _ in range(n)]

    def grow(
        birth: float, base: Tuple[int, int], chosen: Tuple[int, ...], cands: List[int]
    ) -> None:
        for pos, w in enumerate(cands):
            cell = chosen + (w,)
            simplices.append(Simplex(birth, len(cell) + 1, tuple(sorted(base + cell))))
            if len(cell) + 2 <= max_dim:
                grow(birth, base, cell, [z for z in cands[pos + 1:] if z in adj[w]])

    if max_dim >= 1:
        for u, v, birth in zip(i[:end].tolist(), j[:end].tolist(), d[:end].tolist()):
            simplices.append(Simplex(birth, 1, (u, v)))
            if max_dim >= 2:
                grow(birth, (u, v), (), sorted(adj[u] & adj[v]))
                adj[u].add(v)
                adj[v].add(u)
    simplices.sort()

    thresholds = d[starts[starts < end]].tolist()
    spans = [ThresholdSpan(0.0, 0, n)]
    for t in thresholds:  # each simplex past the vertices is born at a threshold
        stop = bisect_right(simplices, t, key=attrgetter("birth"))
        spans.append(ThresholdSpan(t, spans[-1].end, stop))
    return Filtration(
        n_points=n,
        max_dim=max_dim,
        max_distance=m.max_distance(),
        simplices=simplices,
        thresholds=thresholds,
        spans=spans,
        stopped_early=end < len(d),
    )
