"""The counted top dimension: its ranks, its births and its pairs; and
:func:`reduce_columns`, which reduces the columns that are not apparent,
of stored cofaces and counted ones alike.

At a cap k of 2 or more the top dimension only serves as cofaces and open
bars, and it is the largest one, so once dimension k − 1 has more than
:data:`~ripsbars.filtration.COUNT_TOP_ABOVE` rows it is never built; below
that, building it costs less than the fixed numpy calls here, and
:mod:`ripsbars.filtration` stores it.  A k-simplex is a
(k − 1)-row σ plus a vertex w adjacent to all of its vertices, and is born
at the rank max(rank σ, max over v in σ of R[v, w]), R the
:func:`rank_matrix` of the kept edges, ranks as ``Filtration.births``
holds them.  :func:`coface_ranks` lays those ranks out as an
(m_{k−1}, n) array: counted over the w above each row's last vertex
(:func:`top_ranks`), they give the dimension's births, and over every w
they give each column of dimension k − 1 its cofaces, which
:func:`top_pairs` pairs against with no row of dimension k (Bauer 2021,
*Ripser*).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Set

import numpy as np

if TYPE_CHECKING:
    from .filtration import Filtration


def rank_matrix(n: int, edges: np.ndarray, born: np.ndarray, count: int) -> np.ndarray:
    """The (n, n) rank matrix of the ``edges``, an (m, 2) array of vertex
    pairs whose births have the ranks ``born`` among ``count`` thresholds:
    entry (u, w) is the rank of edge {u, w}, and ``count`` where u and w
    share no edge, the diagonal included, in the smallest unsigned dtype
    that holds ``count``."""
    ranks = np.full((n, n), count, dtype=np.min_scalar_type(count))
    ranks[edges[:, 0], edges[:, 1]] = born
    ranks[edges[:, 1], edges[:, 0]] = born
    return ranks


def coface_ranks(rows: np.ndarray, born: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The birth ranks of the (m, k) vertex ``rows``, of ranks ``born``,
    each extended by one vertex, under the :func:`rank_matrix` ``ranks``:
    entry (j, w) is the largest of ``born[j]`` and ``ranks[v, w]`` over the
    vertices v of row j, an (m, n) array in the dtype of ``ranks``, which
    ``born`` shares.  It is the sentinel of ``ranks`` exactly where row j
    plus w is no simplex: w lies in row j, or misses an edge to one of its
    vertices."""
    out = ranks.take(rows[:, 0], axis=0)
    for v in range(1, rows.shape[1]):
        np.maximum(out, ranks.take(rows[:, v], axis=0), out=out)
    np.maximum(out, born[:, None], out=out)
    return out


#: Entries per block of :func:`top_ranks`.  Counting a block takes a
#: ``bincount`` of its simplices' ranks, which copies them to intp: at most
#: 2 MB.
_BLOCK = 2**18


def top_ranks(
    rows: np.ndarray, born: np.ndarray, ranks: np.ndarray, count: int
) -> Iterator[np.ndarray]:
    """The simplices one dimension above the vertex ``rows``, of ranks
    ``born`` among ``count`` thresholds, each as a row plus a larger vertex
    w adjacent to all of its vertices, so each is listed once: blocks of
    :func:`coface_ranks` over consecutive rows, with ``count`` wherever w
    is not above the row's last vertex."""
    upper = ranks.copy()
    upper[np.tri(len(ranks), dtype=bool)] = count
    step = max(1, _BLOCK // len(ranks))
    for start in range(0, len(rows), step):
        yield coface_ranks(rows[start:start + step], born[start:start + step], upper)


def reduce_columns(
    loop: List[int], cols: List[Set[int]], settle: Callable[[List[Set[int]]], None]
) -> Dict[int, int]:
    """The pivots the coboundary columns ``cols`` of the simplices ``loop``,
    latest first, own once reduced, each over its simplex.  A column is a
    set of coface ids, which sort in filtration order: its pivot is the
    smallest.  ``settle`` adds to each column of a list, in place, the
    apparent columns that own its pivot, until none does; a column then
    adds the reduced column that owns its pivot and settles again."""
    settle(cols)
    owner: Dict[int, int] = {}
    reduced: Dict[int, Set[int]] = {}  # each owned pivot's column
    for j, col in zip(loop, cols):
        while col:
            pivot = min(col)
            if pivot not in owner:
                owner[pivot], reduced[pivot] = j, col
                break
            col ^= reduced[pivot]
            settle([col])
    return owner


def top_pairs(f: Filtration, cleared: np.ndarray) -> np.ndarray:
    """The pairs of the counted top dimension k against the rows of
    dimension k − 1 that ``cleared`` does not list, in the shape
    :func:`ripsbars.persistence.persistence_pairs` gives them, with no row
    of dimension k built.

    A k-coface of row j is row j plus a vertex w, and its birth rank is
    entry (j, w) of :func:`coface_ranks`; cofaces sort by (rank, vertices),
    and on one row by (rank, w), so the smallest (rank, w) is the pivot.
    The column is apparent when its row is the latest facet of that pivot:
    each other facet, the pivot less a vertex u of the row, ranks lower, or
    ties with u > w, and its rank is the larger of its facet's in
    ``f.facets[k - 1]`` and its edges to w.  The other columns go through
    :func:`reduce_columns` as sets of (rank, vertices) keys computed from
    ``f.ranks`` alone; a pivot belongs to an apparent column exactly when
    its latest facet's pivot is that pivot, which ``settle`` tests for all
    the columns of a round at once, and a cleared column never looks
    apparent, as its row kills a class.
    Each killer's row is the first row of its rank in ``f.births[k]``, and
    :func:`~ripsbars.persistence.extract_pairs` subtracts the killers of
    each rank from its count, so no killer needs a row of its own."""
    k = len(f.vertices)
    rows, ranks, count, n = f.vertices[k - 1], f.ranks, len(f.thresholds), f.n_points
    todo = np.ones(len(rows), dtype=bool)
    todo[cleared] = False
    todo = todo.nonzero()[0][::-1]
    born = f.births[k - 1][todo]
    # The pivot of each column is its smallest (rank, w).
    grown = coface_ranks(rows[todo], born, ranks)
    first = grown.argmin(axis=1)
    rank = grown[np.arange(len(first)), first]
    grown = None  # freed before the apparent test
    keep = rank < count  # the columns with a coface
    todo, born, first, rank = todo[keep], born[keep], first[keep], rank[keep]
    # Facet v of the pivot drops vertex v of the row.  Its edges to w are
    # those of the row's other vertices, the larger of the maxima before
    # and after v; the arrays have a row per vertex and a column per row.
    simplex = np.ascontiguousarray(rows[todo].T)
    edges = ranks[simplex, first]
    before, after = np.zeros(edges.shape, ranks.dtype), np.zeros(edges.shape, ranks.dtype)
    for v in range(1, k):
        np.maximum(before[v - 1], edges[v - 1], out=before[v])
        np.maximum(after[-v], edges[-v], out=after[-v - 1])
    facet = np.maximum(before, after, out=before)
    np.maximum(facet, f.births[k - 2][np.ascontiguousarray(f.facets[k - 1][todo].T)], out=facet)
    apparent = ((facet < born) | (facet == born) & (simplex > first)).all(axis=0)

    # The reduction keys a k-simplex of rank r by r << n less the sum of
    # 1 << (n - 1 - v) over its vertices v.  Keys of one rank sort as their
    # vertices do: the smallest vertex two sets do not share weighs more
    # than all larger ones together.
    weight = [1 << (n - 1 - v) for v in range(n)]

    def columns(simplices: np.ndarray, grown: np.ndarray) -> List[Set[int]]:
        """The coboundary columns of the (k − 1)-simplices ``simplices`` as
        sets of keys, from their rows of :func:`coface_ranks`."""
        base = [sum(map(weight.__getitem__, s)) for s in simplices.tolist()]
        cols: List[Set[int]] = [set() for _ in base]
        i, w = np.nonzero(grown < count)
        for j, r, x in zip(i.tolist(), grown[i, w].tolist(), w.tolist()):
            cols[j].add((r << n) - base[j] - weight[x])
        return cols

    def vertices(key: int) -> List[int]:
        """The vertices of the k-simplex keyed ``key``, ascending."""
        mask, t = (-(-key >> n) << n) - key, []
        while mask:
            t.append(n - mask.bit_length())
            mask &= ~weight[t[-1]]
        return t

    def settle(cols: List[Set[int]]) -> None:
        """Add to each column, in place, the apparent column that owns its
        pivot, until none does.  The owner is the pivot's latest facet, if
        that facet's pivot is the pivot: it drops the smallest vertex u
        that some longest edge avoids, and its pivot adds u back."""
        cols = [col for col in cols if col]
        while cols:
            heads = [min(col) for col in cols]
            t = np.array([vertices(head) for head in heads], dtype=np.intp)
            r = np.array([-(-head >> n) for head in heads], dtype=ranks.dtype)
            # The sentinel on the diagonal is no edge's rank.
            touched = (ranks[t[:, :, None], t[:, None, :]] == r[:, None, None]).sum(axis=2)
            drop = (touched < touched.sum(axis=1, keepdims=True) // 2).argmax(axis=1)
            kept = np.arange(k + 1) != drop[:, None]
            u, facet = t[~kept], t[kept].reshape(len(t), k)
            grown = coface_ranks(facet, r, ranks)
            owned = grown.argmin(axis=1) == u
            cols = [cols[i] for i in owned.nonzero()[0].tolist()]
            for col, other in zip(cols, columns(facet[owned], grown[owned])):
                col ^= other
            cols = [col for col in cols if col]

    loop = todo[~apparent]
    cols = columns(rows[loop], coface_ranks(rows[loop], born[~apparent], ranks))
    owner = reduce_columns(loop.tolist(), cols, settle)
    # The killers: the apparent pivots, each its column's row plus w, then
    # the pivots the loop owns.
    keys = list(owner)
    rank = np.concatenate((rank[apparent], np.array([-(-key >> n) for key in keys], rank.dtype)))
    out = np.empty((k + 3, len(rank)), dtype=np.intp)
    at = np.count_nonzero(apparent)
    out[0, :at], out[0, at:] = todo[apparent], list(owner.values())
    out[2:k + 2, :at], out[k + 2, :at] = simplex[:, apparent], first[apparent]
    out[2:, at:] = np.array([vertices(key) for key in keys], dtype=np.intp).reshape(-1, k + 1).T
    out[1] = f.births[k].searchsorted(rank)
    return out
