"""Vietoris–Rips filtrations over the sorted pairwise distances.

The complex at threshold ε is the flag complex of the graph whose edges are
point pairs at distance ≤ ε (closed condition, so births coincide with
matrix entries), truncated at ``max_dim``.  :func:`build_filtration` works in
three steps.  One union-find over the sorted edges (:func:`joins`) finds the
edges that merge components, which are the H0 pairs, and where the
neighborhood graph becomes connected, so a stopped filtration knows its last
threshold before any clique is built.  The edges up to that cut are
dimension 1, and each dimension k + 1 grows from dimension k with numpy
(Zomorodian 2010): a k-simplex is extended by every larger vertex adjacent
to all of its vertices, so each simplex is created once, born at the largest
of its parent's birth and the new vertex's distances, and growth stops at
the first empty dimension.  The rows are grown in lexicographic order and
each new row records its facets' rows: the one that drops the new vertex
is its parent, and the one that drops vertex v is found by one integer
search, as the parent's facet v extended by the new vertex.  One stable
sort by birth per dimension then puts the rows in (birth, vertices) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Tuple

import numpy as np

from .metrics import DistanceMatrix


class Simplex(NamedTuple):
    """One simplex, ``vertices`` ascending; the field order is the filtration order."""

    birth: float
    dim: int
    vertices: Tuple[int, ...]


class ThresholdSpan(NamedTuple):
    """Slice [start, end) of the simplex list created at one threshold."""

    threshold: float
    start: int
    end: int


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class Filtration:
    """A flag complex by dimension, as :func:`build_filtration` returns it.

    ``vertices[k]`` holds one k-simplex per row, an (m_k, k + 1) int array,
    and ``births[k]`` their births, both in (birth, vertices) order.
    ``facets[k]`` is an (m_k, k + 1) intp array (no columns at k = 0) whose
    column v holds the row in ``vertices[k - 1]`` of the facet that drops
    the row's vertex v.  The three tuples end at dimension ``max_dim`` or
    at the first dimension with no simplex, held as zero rows, whichever
    comes first, so on n points at most n + 1 dimensions are stored;
    ``max_dim`` stays the cap asked for, which the barcode records.
    ``simplices`` and ``spans`` merge the dimensions into the filtration
    order (birth, dimension, vertices), which keeps every face in front of
    its cofaces; they are read-only views derived on first access, and the
    pipeline never builds them.
    ``max_distance`` is the maximum pairwise distance of the source matrix
    (before any stop), the normalization divisor for barcodes.  ``merges``
    is the H0 pairing, a (2, p_0) int array: the vertex whose component an
    edge merged into an older one, over that edge's row in ``vertices[1]``
    (empty when ``max_dim`` is 0, as no edge is kept).
    """

    n_points: int
    max_dim: int
    max_distance: float
    vertices: Tuple[np.ndarray, ...]
    births: Tuple[np.ndarray, ...]
    facets: Tuple[np.ndarray, ...]
    thresholds: List[float]
    stopped_early: bool
    merges: np.ndarray

    @property
    def span_end(self) -> float:
        """Last processed threshold (0 when no edges were processed)."""
        return self.thresholds[-1] if self.thresholds else 0.0

    @cached_property
    def simplices(self) -> Tuple[Simplex, ...]:
        """Every simplex as a record, in filtration order."""
        return tuple(sorted(
            Simplex(birth, k, tuple(row))
            for k, (rows, births) in enumerate(zip(self.vertices, self.births))
            for birth, row in zip(births.tolist(), rows.tolist())
        ))

    @cached_property
    def spans(self) -> Tuple[ThresholdSpan, ...]:
        """Slices of ``simplices``: the vertices, then those born at each threshold."""
        ends = sum(np.searchsorted(b, self.thresholds, side="right") for b in self.births)
        ends = [0, self.n_points] + ends.tolist()
        return tuple(map(ThresholdSpan, [0.0] + self.thresholds, ends[:-1], ends[1:]))


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
    merged = joins(n, zip(i, j))
    end = len(d)
    if stop_when_connected and merged:
        end = int(np.searchsorted(d, d[max(merged.values())], side="right"))
    merges = np.array([list(merged), list(merged.values())], dtype=np.intp)

    adjacent = np.zeros((n, n), dtype=bool)  # adjacent[u, w]: edge u < w is kept
    adjacent[i[:end], j[:end]] = True
    # Dimensions 1 and up are grown with their rows in lexicographic
    # order, the ascending order of ``keys``: the rank of the row's
    # parent (the row less its last vertex) times n plus that vertex.
    # Their facets are ranks until each is sorted by birth below.
    keys = np.flatnonzero(adjacent)  # u * n + w for each kept edge u < w
    u, w = np.divmod(keys, n)
    vertices = [np.arange(n)[:, None], np.column_stack((u, w))]
    births = [np.zeros(n), m.entries[u, w]]
    facets = [np.empty((n, 0), dtype=np.intp), np.column_stack((w, u))]
    while len(vertices) <= max_dim and len(vertices[-1]):
        p, w = np.nonzero(np.logical_and.reduce(adjacent[vertices[-1]], axis=1))
        rows = np.column_stack((np.take(vertices[-1], p, axis=0), w))
        born = births[-1][p]
        faces = np.empty_like(rows)
        faces[:, -1] = p  # the facet that drops w is row p itself
        for v in range(rows.shape[1] - 1):
            born = np.maximum(born, m.entries[rows[:, v], w])
            # Row p less its vertex v, extended by w, is its facet v
            # extended by w.
            faces[:, v] = np.searchsorted(keys, facets[-1][p, v] * n + w)
        vertices.append(rows)
        births.append(born)
        facets.append(faces)
        keys = p * n + w
    lex = np.arange(n)  # the row of each rank in the dimension below
    for k in range(1, len(vertices)):
        order = np.argsort(births[k], kind="stable")
        for x in (vertices[k], births[k], facets[k]):
            x[:] = np.take(x, order, axis=0)  # in place: no unsorted copy stays
        facets[k][:] = lex[facets[k]]
        lex = np.empty_like(order)
        lex[order] = np.arange(len(order))
    return Filtration(
        n_points=n,
        max_dim=max_dim,
        max_distance=m.max_distance(),
        vertices=tuple(vertices[: max_dim + 1]),
        births=tuple(births[: max_dim + 1]),
        facets=tuple(facets[: max_dim + 1]),
        thresholds=d[starts[starts < end]].tolist(),
        stopped_early=end < len(d),
        merges=merges if max_dim else merges[:, :0],
    )
