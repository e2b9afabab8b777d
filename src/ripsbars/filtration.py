"""Vietoris–Rips filtrations over the pairwise distances.

The complex at threshold ε is the flag complex of the graph whose edges are
point pairs at distance ≤ ε (closed condition, so births coincide with
matrix entries), truncated at ``max_dim``.  :func:`build_filtration` works in
three steps.  First it finds the cut: for a stopped filtration, the first
threshold at which the neighborhood graph is connected, the longest edge
of a minimum spanning tree (:func:`connectivity_cut`, Prim's scan on the
dense matrix); otherwise ∞.  The pairs at distance ≤ the cut are the kept
edges, dimension 1, and only they are read and expanded.  Each dimension
k + 1 grows from dimension k with numpy (Zomorodian 2010): a k-simplex is
extended by every larger vertex adjacent to all of its vertices, so each
simplex is created once, born at the largest of its parent's birth and the
new vertex's distances, and growth stops at the first empty dimension.
Each k-simplex carries those candidates as a boolean row over the points,
its parent's row ANDed with the upper neighbours of its last vertex, so no
step rereads all k + 1 vertices.  The rows are grown in lexicographic
order, the row-major order of the candidate rows, and each new row records
its facets' rows: the one that drops the new vertex is its parent, and the
one that drops vertex v is the parent's facet v extended by the new
vertex, read from a running count of the candidate rows one dimension
down.  One stable sort per dimension then puts the rows in (birth,
vertices) order: the edges by birth, and each higher dimension by the rank
of its births among the distinct edge births, since every simplex is born
with one of its edges.  Every index array, vertex rows and facet rows
alike, is stored in the smallest unsigned dtype that holds the rows it
indexes (``np.min_scalar_type``).

The top dimension k, when it is the cap and at least 2, is routed by the
row count m_{k−1} of the dimension below it.  Up to ``COUNT_TOP_ABOVE``
rows it is built and stored like every dimension below it.  Above that it
is counted and never built (:mod:`ripsbars.cofaces`): its births are the
distinct thresholds repeated by a ``bincount`` of the ranks of its
simplices, each a (k − 1)-row plus a larger common neighbour, with no
row, facet row or sort of dimension k.  The complex is all it holds: its
pairs, H0 included, come from :mod:`ripsbars.persistence`, which pairs
dimension k − 1 against a stored top's coboundaries or against a counted
top's implicit cofaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Tuple

import numpy as np

from .cofaces import rank_matrix, top_ranks
from .metrics import DistanceMatrix

#: A top dimension k ≥ 2 at the cap is counted when dimension k − 1 has
#: more rows than this, and built and stored like the dimensions below it
#: otherwise.  Counting it and pairing against its implicit cofaces
#: (:mod:`ripsbars.cofaces`) takes a fixed count of numpy calls that costs
#: more than building a small top dimension, which by Kruskal–Katona has
#: at most about m_{k−1}^{(k+1)/k} rows.  The value is the crossover of the
#: two routes measured on clouds of 15 to 60 points and on the dice.
COUNT_TOP_ABOVE = 512


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

    ``vertices[k]`` holds one k-simplex per row, an (m_k, k + 1) array of
    point indices, and ``births[k]`` their births, both in (birth,
    vertices) order.  ``facets[k]`` is an (m_k, k + 1) array (no columns at
    k = 0) whose column v holds the row in ``vertices[k - 1]`` of the facet
    that drops the row's vertex v.  Each index array has the smallest
    unsigned dtype that holds its largest possible entry,
    ``np.min_scalar_type(count - 1)``: the count is ``n_points`` for
    ``vertices`` and for ``facets[0]`` and ``facets[1]``, and m_{k-1} for
    ``facets[k]`` above, so 31 points take ``uint8`` rows and 300 take
    ``uint16``.  The three tuples end at dimension ``max_dim`` or
    at the first dimension with no simplex, held as zero rows, whichever
    comes first, so on n points at most n + 1 dimensions are held;
    ``max_dim`` stays the cap asked for, which the barcode records.  A
    top dimension at a cap of 2 or more is counted when the dimension
    below it has more than ``COUNT_TOP_ABOVE`` rows: ``births`` holds it,
    the distinct thresholds repeated by its simplices per birth, and
    ``vertices`` and ``facets`` end one dimension lower.
    ``ranks`` is the :func:`~ripsbars.cofaces.rank_matrix` of the kept
    edges, derived on first access.  ``simplices`` and ``spans`` merge the
    dimensions, a counted top one listed from its ranks, into the
    filtration order (birth, dimension, vertices), which keeps every face
    in front of its cofaces; they are read-only views derived on first
    access, and the pipeline never builds them.
    ``max_distance`` is the maximum pairwise distance of the source matrix
    (before any stop), the normalization divisor for barcodes.
    """

    n_points: int
    max_dim: int
    max_distance: float
    vertices: Tuple[np.ndarray, ...]
    births: Tuple[np.ndarray, ...]
    facets: Tuple[np.ndarray, ...]
    thresholds: List[float]
    stopped_early: bool

    @property
    def span_end(self) -> float:
        """Last processed threshold (0 when no edges were processed)."""
        return self.thresholds[-1] if self.thresholds else 0.0

    @cached_property
    def ranks(self) -> np.ndarray:
        """The :func:`~ripsbars.cofaces.rank_matrix` of the kept edges among
        ``thresholds``."""
        born = np.searchsorted(self.thresholds, self.births[1])
        return rank_matrix(self.n_points, self.vertices[1], born, len(self.thresholds))

    @cached_property
    def simplices(self) -> Tuple[Simplex, ...]:
        """Every simplex as a record, in filtration order."""
        rows, births = list(self.vertices), list(self.births)
        if len(births) > len(rows):  # the counted top dimension, listed from its ranks
            below, count = rows[-1], len(self.thresholds)
            born = np.searchsorted(self.thresholds, births[-2])
            ranks = np.concatenate(list(top_ranks(below, born, self.ranks, count)))
            j, w = np.nonzero(ranks < count)
            rows.append(np.column_stack((below[j], w)))
            births[-1] = np.array(self.thresholds)[ranks[j, w]]
        return tuple(sorted(
            Simplex(birth, k, tuple(row))
            for k, (table, born) in enumerate(zip(rows, births))
            for birth, row in zip(born.tolist(), table.tolist())
        ))

    @cached_property
    def spans(self) -> Tuple[ThresholdSpan, ...]:
        """Slices of ``simplices``: the vertices, then those born at each threshold."""
        ends = sum(np.searchsorted(b, self.thresholds, side="right") for b in self.births)
        ends = [0, self.n_points] + ends.tolist()
        return tuple(map(ThresholdSpan, [0.0] + self.thresholds, ends[:-1], ends[1:]))


def connectivity_cut(entries: np.ndarray) -> float:
    """The longest edge of a minimum spanning tree of the complete graph on
    the symmetric matrix ``entries``: the first threshold at which the
    neighborhood graph is connected (∞ for one point).

    Prim's scan on the dense matrix, one numpy step per vertex, with no
    copy of it: ``best`` holds each vertex's distance to the tree, ∞ once
    the vertex has joined.  It reads whole rows, which is sound because a
    :class:`DistanceMatrix` refuses entries that differ from their
    transpose.  Every minimum spanning tree has the same longest edge, so
    ties cannot move the cut.
    """
    n = len(entries)
    best = np.full(n, np.inf)
    joined = np.zeros(n, dtype=bool)
    v = 0
    lengths = []
    for _ in range(n - 1):
        joined[v] = True
        np.minimum(best, entries[v], out=best)
        best[joined] = np.inf
        v = int(best.argmin())
        lengths.append(best[v])
    return float(max(lengths, default=np.inf))


def build_filtration(
    m: DistanceMatrix, max_dim: int = 2, stop_when_connected: bool = False
) -> Filtration:
    """The flag complex of ``m`` up to dimension ``max_dim``, in filtration order.

    With ``stop_when_connected`` the filtration ends after the first
    threshold at which the neighborhood graph is connected, the longest
    minimum-spanning-tree edge (that threshold is processed completely);
    connectivity follows the graph even when ``max_dim`` is 0 and no edge
    simplex is kept.  Stopped or not, one path builds it: only the pairs
    at distance ≤ the cut (∞ without a stop) are read, sorted and
    expanded.  Beside the arrays it returns, the expansion holds an
    (m_k, n) boolean candidate row per top simplex and, while it reads the
    next dimension's facets, a running count of the candidate rows one
    dimension down, in the smallest signed dtype that holds m_k; neither
    is held during the sort.  A top dimension k ≥ 2 at the cap is built
    when dimension k − 1 has at most ``COUNT_TOP_ABOVE`` rows, and counted
    from blocks of :func:`~ripsbars.cofaces.top_ranks` when it has more.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    n = m.n
    cut = connectivity_cut(m.entries) if stop_when_connected else np.inf
    adjacent = np.triu(m.entries <= cut, k=1)  # adjacent[u, w]: edge u < w is kept
    # Dimensions 1 and up are grown with their rows in lexicographic
    # order.  At the top of each step, ``mask`` has a row per row of the
    # dimension below the top one, marking the vertices larger than, and
    # adjacent to, all of that row's vertices; its nonzeros (p, w) in
    # row-major order are the top dimension's rows, row p plus vertex w,
    # read off its flat nonzeros p * n + w.
    # For dimension 1 it is ``adjacent``, a row per vertex.  Facets are
    # rows in that order until each dimension is sorted by birth below.
    p, w = np.divmod(np.flatnonzero(adjacent), n)  # the edges p < w
    point = np.min_scalar_type(n - 1)
    rows = np.empty((len(p), 2), dtype=point)
    rows[:, 0] = p
    rows[:, 1] = w
    vertices = [np.arange(n, dtype=point)[:, None], rows]
    births = [np.zeros(n), m.entries[p, w]]
    facets = [np.empty((n, 0), dtype=point), rows[:, ::-1].copy()]
    mask = adjacent
    counted = False  # whether the top dimension is counted, not built
    while len(vertices) <= max_dim and len(vertices[-1]):
        counted = len(vertices) == max_dim and len(vertices[-1]) > COUNT_TOP_ABOVE
        if counted:
            break
        # index[q * n + x]: the top dimension's row that is row q plus
        # vertex x, the running count of the mask's nonzeros less one.  The
        # count ends at the top dimension's row count m, so it takes the
        # smallest signed dtype that holds m: the one that holds -1 - m.
        index = mask.cumsum(dtype=np.min_scalar_type(-1 - len(vertices[-1])))
        index -= 1
        # A top row's candidates are its parent's less those not adjacent
        # to its last vertex w; ``adjacent`` keeps only vertices above w.
        mask = mask[p]
        mask &= adjacent[w]
        # Its flat nonzeros are p * n + w; numpy's floor division by the
        # scalar n is far cheaper than its divmod.
        w = np.flatnonzero(mask)
        p = w // n
        w -= p * n
        k = len(vertices)  # the new dimension
        faces = np.empty((len(p), k + 1), dtype=np.min_scalar_type(len(vertices[-1]) - 1))
        faces[:, -1] = p  # the facet that drops w is row p itself
        for v in range(k):
            # Row p less its vertex v, extended by w, is its facet v
            # extended by w.  The flat index is taken in intp: the facet
            # rows may be 8- or 16-bit, too narrow for q * n.
            at = np.multiply(facets[-1][:, v][p], n, dtype=np.intp)
            at += w
            faces[:, v] = index[at]
        index = at = None  # freed before the rows are built
        rows = np.empty((len(p), k + 1), dtype=point)
        np.take(vertices[-1], p, axis=0, out=rows[:, :-1])
        rows[:, -1] = w
        born = births[-1][p]
        # A flat read of entry (u, w): column-major, as the index w * n + u
        # stays intp whatever the dtype of u.
        by_column = m.entries.ravel(order="F")
        column = w * n
        for v in range(k):
            np.maximum(born, by_column[column + rows[:, v]], out=born)
        vertices.append(rows)
        births.append(born)
        facets.append(faces)
    mask = None  # freed before the sort
    # Dimension 1 is sorted by birth; every higher birth is the birth of
    # one of its edges, so the higher dimensions sort by that birth's rank
    # among the distinct edge births, in the smallest unsigned dtype that
    # holds it, which numpy radix-sorts when it is 8- or 16-bit.  Both
    # sorts are stable, so equal births keep the lexicographic order.
    order = np.argsort(births[1], kind="stable")
    distinct = births[1][order]
    distinct = distinct[np.diff(distinct, prepend=-np.inf) > 0]
    rank = np.min_scalar_type(len(distinct) - 1)
    for k in range(1, len(vertices)):
        if k > 1:  # the vertices keep their order, so the edges' facets do too
            order = np.argsort(np.searchsorted(distinct, births[k]).astype(rank), kind="stable")
            facets[k][:] = lex[facets[k]]
        for x in (vertices[k], births[k], facets[k]):
            x[:] = np.take(x, order, axis=0)  # in place: no unsorted copy stays
        # lex[r]: the row in sorted order of row r in lexicographic order
        lex = np.empty(len(order), dtype=np.min_scalar_type(len(order) - 1))
        lex[order] = np.arange(len(order))
    if counted:  # per birth rank, never built
        ranks = rank_matrix(n, vertices[1], np.searchsorted(distinct, births[1]), len(distinct))
        born = np.searchsorted(distinct, births[-1])
        counts = sum(
            np.bincount(block[block < len(distinct)], minlength=len(distinct))
            for block in top_ranks(vertices[-1], born, ranks, len(distinct))
        )
        births.append(np.repeat(distinct, counts))
    return Filtration(
        n_points=n,
        max_dim=max_dim,
        max_distance=m.max_distance(),
        vertices=tuple(vertices[: max_dim + 1]),
        births=tuple(births[: max_dim + 1]),
        facets=tuple(facets[: max_dim + 1]),
        thresholds=distinct.tolist(),
        stopped_early=len(births[1]) < n * (n - 1) // 2,
    )
