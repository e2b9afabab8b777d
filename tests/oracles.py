"""Independent oracles the test suite checks the library against.

Everything here is deliberately brute force and shares no code with the
implementation under test: cliques by direct enumeration, spanning trees by
Prim's scan over all pairs, cycle membership
and longest cycles by exhaustive DFS, simplex births by max pairwise
distance, Betti numbers by dense elimination over Z/2, bottleneck distances
by matching, pseudometric axioms and live bars checked entry by entry.
``boundary_pairs`` reads the pairs off the library's boundary reduction,
which the tests keep as the reference for its coboundary reduction, and
``apparent_pairs_brute`` finds each simplex's earliest coface and latest
facet from vertex tuples and births; ``dimension_rows`` reads every
dimension's rows, a counted top one included, off ``Filtration.simplices``.
``facets_by_lookup`` finds each facet's row through a dict of vertex
tuples, ``coboundaries_by_search`` builds coboundaries by searching
each row less one vertex among the rows below, and
``coboundaries_by_argsort`` transposes facet rows by a stable argsort.
The reference loops at the end evaluate one point, pair, candidate, matrix entry or bar record
at a time, the way the library did before it switched to array
expressions; the array code must match them bit for bit.  ``foliation`` and ``symmetry`` evaluate
the dice descriptors die by die from their defining formulas, in exact
fractions.  ``barcode_of`` builds a barcode from bar records, and
``bar_rows`` lists a filtration's bars one row per bar.  The dice
oracles take each die as a tuple of faces; ``dice_tuples`` reads them off
the rows of a face array.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from ripsbars.cloud import Region
from ripsbars.dice import BeatingGraph
from ripsbars.filtration import Filtration
from ripsbars.metrics import TRIANGLE_TOL, DistanceMatrix
from ripsbars.fileio import fmt
from ripsbars.persistence import (
    Bar, Barcode, SparseBinaryMatrix, reduce_matrix, total_boundary_matrix,
)
from ripsbars.stats import BarStats

Die = Tuple[int, ...]


def dice_tuples(faces: np.ndarray) -> Tuple[Die, ...]:
    """The rows of a face array as tuples of Python ints, one per die."""
    return tuple(tuple(row) for row in faces.tolist())


def flag_complex_brute(m: DistanceMatrix, eps: float, max_dim: int) -> Set[Tuple[int, ...]]:
    """Every vertex subset of size ≤ max_dim+1 that is pairwise within eps."""
    n = m.n
    simplices: Set[Tuple[int, ...]] = {(i,) for i in range(n)}
    for size in range(2, max_dim + 2):
        for combo in itertools.combinations(range(n), size):
            if all(m.entries[i, j] <= eps for i, j in itertools.combinations(combo, 2)):
                simplices.add(combo)
    return simplices


def simplex_birth_brute(m: DistanceMatrix, vertices: Sequence[int]) -> float:
    """A clique enters the filtration when its longest edge does."""
    if len(vertices) < 2:
        return 0.0
    return max(m.entries[i, j] for i, j in itertools.combinations(vertices, 2))


def mst_edge_lengths(m: DistanceMatrix) -> List[float]:
    """Edge lengths of a minimum spanning tree of the complete graph on the
    points, in the order Prim's algorithm adds them: each step scans every
    pair with one end inside the tree for the shortest."""
    inside = {0}
    lengths: List[float] = []
    while len(inside) < m.n:
        length, v = min(
            (float(m.entries[a, b]), b)
            for a in inside
            for b in range(m.n)
            if b not in inside
        )
        inside.add(v)
        lengths.append(length)
    return lengths


def _rank_gf2(columns: List[int]) -> int:
    """Rank of a Z/2 matrix given as bitmask columns (Gaussian elimination)."""
    pivots: Dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            high = col.bit_length() - 1
            pivot = pivots.get(high)
            if pivot is None:
                pivots[high] = col
                rank += 1
                break
            col ^= pivot
    return rank


def betti_numbers(f: Filtration, eps: float) -> List[int]:
    """β_k of the complex at threshold ε, for k = 0 .. max_dim.

    Restrict to simplices with birth ≤ ε, then β_k = n_k − rank ∂_k −
    rank ∂_{k+1} by elimination over Z/2.  Each boundary is rebuilt from
    the vertex tuples, so no face bookkeeping of the filtration is used.
    """
    by_dim: List[List[Tuple[int, ...]]] = [[] for _ in range(f.max_dim + 2)]
    for s in f.simplices:
        if s.birth <= eps:
            by_dim[len(s.vertices) - 1].append(s.vertices)
    ranks = [0] * (f.max_dim + 3)
    for k in range(1, f.max_dim + 2):
        row = {v: r for r, v in enumerate(by_dim[k - 1])}
        ranks[k] = _rank_gf2([
            sum(1 << row[face] for face in itertools.combinations(v, k))
            for v in by_dim[k]
        ])
    return [len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(f.max_dim + 1)]


def dimension_rows(f: Filtration) -> List[np.ndarray]:
    """Per dimension k, top included whether stored or counted, the
    (m_k, k + 1) vertex rows in filtration order, read off
    ``f.simplices``."""
    rows: List[List[Tuple[int, ...]]] = [[] for _ in f.births]
    for s in f.simplices:
        rows[s.dim].append(s.vertices)
    return [np.array(r, dtype=np.intp).reshape(-1, k + 1) for k, r in enumerate(rows)]


def boundary_pairs(R: SparseBinaryMatrix, f: Filtration) -> List[np.ndarray]:
    """The pairs of a reduced boundary matrix in the shape ``extract_pairs``
    reads: per dimension k below the top one, an array whose rows 0 and 1
    hold the rows in dimension k of the classes that die and the rows in
    dimension k + 1 of their killers, and whose k + 2 further rows hold the
    killers' vertices.  Nonzero column j kills the class born at its lowest
    1; a simplex's row is its rank among the simplices of its dimension in
    ``f.simplices``."""
    rank: List[int] = []
    seen = [0] * len(f.births)
    for s in f.simplices:
        rank.append(seen[s.dim])
        seen[s.dim] += 1
    pairs: List[List[List[int]]] = [[] for _ in f.births[1:]]
    for j, col in enumerate(R.columns):
        if col:
            pairs[f.simplices[col[-1]].dim].append(
                [rank[col[-1]], rank[j], *f.simplices[j].vertices])
    return [np.array(p, dtype=np.intp).reshape(-1, k + 4).T for k, p in enumerate(pairs)]


def pair_sets(f: Filtration, pairs: List[np.ndarray]) -> List[Set[Tuple[int, Tuple[int, ...]]]]:
    """Per dimension k, the pairs as a set of (class row, killer's
    vertices): from the array's rows 2 on when it lists them, else from the
    killer's row in ``f.vertices[k + 1]``.  So the killers in a counted top
    dimension are told apart by their vertices, not by their births."""
    result = []
    for k, p in enumerate(pairs):
        killers = p[2:].T if len(p) > 2 else f.vertices[k + 1][p[1]]
        result.append(set(zip(p[0].tolist(), map(tuple, np.sort(killers, axis=1).tolist()))))
    return result


def apparent_pairs_brute(f: Filtration) -> List[Set[Tuple[int, Tuple[int, ...]]]]:
    """Per dimension k below the top one, the apparent pairs (σ, τ) as
    (row in dimension k, vertices of τ): τ is σ's earliest coface and σ is
    τ's latest facet, both in (birth, vertices) order (Bauer 2021,
    *Ripser*).  The rows and births are read off ``f.simplices``, and each
    (k + 1)-simplex's facets are its vertex tuples less one vertex, looked
    up in a dict of births, with no use of ``f.facets``."""
    rows = [list(map(tuple, r.tolist())) for r in dimension_rows(f)]
    birth = {s.vertices: s.birth for s in f.simplices}
    result: List[Set[Tuple[int, Tuple[int, ...]]]] = []
    for lower, upper in zip(rows, rows[1:]):
        key = {s: (birth[s], s) for s in lower}
        earliest: Dict[Tuple[int, ...], Tuple[float, Tuple[int, ...]]] = {}
        latest: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for t in upper:
            facets = [t[:i] + t[i + 1:] for i in range(len(t))]
            latest[t] = max(facets, key=key.__getitem__)
            for s in facets:
                earliest[s] = min(earliest.get(s, (birth[t], t)), (birth[t], t))
        row = {v: r for r, v in enumerate(lower)}
        result.append({(row[s], t) for s, (_, t) in earliest.items() if latest[t] == s})
    return result


def facets_by_lookup(f: Filtration) -> List[np.ndarray]:
    """Per stored dimension k, an (m_k, k + 1) array (no columns at k = 0)
    whose column v holds the row in ``f.vertices[k - 1]`` of the facet that
    drops vertex v, looked up in a dict from vertex tuple to row."""
    result: List[np.ndarray] = []
    row_of: Dict[Tuple[int, ...], int] = {}
    for k, rows in enumerate(f.vertices):
        simplices = [tuple(row) for row in rows.tolist()]
        width = k + 1 if k else 0
        facets = [[row_of[s[:v] + s[v + 1:]] for v in range(width)] for s in simplices]
        result.append(np.array(facets, dtype=np.intp).reshape(len(simplices), width))
        row_of = {s: r for r, s in enumerate(simplices)}
    return result


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row, equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def coboundaries_by_search(lower: np.ndarray, upper: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Coboundary columns of the simplices ``lower`` as CSR arrays: column j
    is ``cofaces[ptr[j]:ptr[j + 1]]``, the rows of ``upper`` that have row j
    as a facet, ascending.  Each facet, an ``upper`` row less one vertex, is
    found by one exact search among the sorted void-row keys of ``lower``,
    with no use of ``Filtration.facets``."""
    keys = _row_keys(lower)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    facets = np.column_stack([
        by_key[np.searchsorted(keys, _row_keys(np.delete(upper, i, axis=1)))]
        for i in range(upper.shape[1])
    ])
    return coboundaries_by_argsort(facets, len(lower))


def coboundaries_by_argsort(facets: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Coboundary columns of the ``m`` simplices below the facet rows
    ``facets`` as CSR arrays, by a stable argsort of the flattened rows:
    entries of one column keep their row-major order, so each column's
    rows come out ascending.  The cofaces are intp."""
    flat = facets.astype(np.intp).ravel()
    ptr = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=m))))
    return ptr, np.argsort(flat, kind="stable") // facets.shape[1]


def barcode_of(bars: Sequence[Bar], zero_length: Sequence[Bar] = (), **meta) -> Barcode:
    """The barcode of the bar records ``bars`` and ``zero_length``, which
    the constructor puts in barcode order; ``meta`` gives the remaining
    fields."""
    rows = list(bars) + list(zero_length)
    return Barcode(
        dim=np.array([b.dim for b in rows], dtype=int),
        birth=np.array([b.birth for b in rows], dtype=float),
        death=np.array([b.death for b in rows], dtype=float),
        open=np.array([b.open for b in rows], dtype=bool),
        **meta,
    )


def bar_rows(f: Filtration, normalize: bool) -> List[Tuple[int, float, float, bool]]:
    """One (dim, birth, death, open) row per bar and per zero-length pair
    of ``f``, read off the reduced total boundary matrix simplex by
    simplex: a zero column births a class, which dies at the birth of the
    column whose lowest 1 it is, or stays open to the right edge.  Sorted
    in barcode order: the bars, then the zero-length pairs, each by
    (dim, birth, death, open)."""
    R, _ = reduce_matrix(total_boundary_matrix(f))
    killer = {col[-1]: j for j, col in enumerate(R.columns) if col}
    divisor = f.max_distance if normalize else 1.0
    end = 1.0 if normalize else f.span_end
    rows = []
    for i, (birth, dim, _) in enumerate(f.simplices):
        if R.columns[i]:
            continue  # it kills a class, and births none
        if i in killer:
            rows.append((dim, birth / divisor, f.simplices[killer[i]].birth / divisor, False))
        else:
            rows.append((dim, birth / divisor, end, True))
    return sorted(rows, key=lambda row: (not row[3] and row[1] == row[2], row))


def in_dim(bc: Barcode, dim: int) -> Tuple[Bar, ...]:
    """The bars of one dimension, in barcode order."""
    return tuple(b for b in bc.bars if b.dim == dim)


def bars_alive(bars: Sequence[Bar], eps: float) -> Dict[int, int]:
    """Per-dimension count of bars alive at ε: birth ≤ ε and (open or death > ε)."""
    alive: Dict[int, int] = {}
    for b in bars:
        if b.birth <= eps and (b.open or b.death > eps):
            alive[b.dim] = alive.get(b.dim, 0) + 1
    return alive


@dataclass(frozen=True)
class Violation:
    """A single failed pseudometric axiom with its witness indices."""

    axiom: str  # "nonnegativity" | "symmetry" | "zero-diagonal" | "triangle"
    witness: Tuple[int, ...]
    amount: float


@dataclass
class ValidationReport:
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "pseudometric axioms hold"
        parts = [
            f"{v.axiom} at {v.witness} (by {v.amount:.3g})" for v in self.violations
        ]
        return "; ".join(parts)


def validate_pseudometric(
    m: Union[DistanceMatrix, np.ndarray], tol: float = TRIANGLE_TOL
) -> ValidationReport:
    """Check nonnegativity, symmetry, zero diagonal, and triangle inequality
    of a distance matrix or of a bare square array (which, unlike a
    :class:`DistanceMatrix`, may be asymmetric).

    Violations are reported with witnesses rather than raised; distance 0
    between distinct points is not a violation (pseudometrics are allowed).
    """
    d = m.entries if isinstance(m, DistanceMatrix) else np.asarray(m, dtype=float)
    n = len(d)
    report = ValidationReport()
    for i in range(n):
        if d[i, i] != 0.0:
            report.violations.append(Violation("zero-diagonal", (i,), float(d[i, i])))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] < 0.0 or d[j, i] < 0.0:
                report.violations.append(
                    Violation("nonnegativity", (i, j), float(min(d[i, j], d[j, i])))
                )
            gap = abs(d[i, j] - d[j, i])
            if gap > tol:
                report.violations.append(Violation("symmetry", (i, j), float(gap)))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            # d[i,k] <= d[i,j] + d[j,k] + tol for every k
            slack = d[i, j] + d[j] + tol - d[i]
            for k in np.flatnonzero(slack < 0.0):
                report.violations.append(
                    Violation("triangle", (i, j, int(k)), float(-slack[k]))
                )
    return report


def successors(g: BeatingGraph) -> Dict[Die, Tuple[Die, ...]]:
    """Each node's successor tuple, in node order, read off ``g.beats``."""
    nodes = dice_tuples(g.faces)
    return {
        x: tuple(y for y, edge in zip(nodes, row) if edge)
        for x, row in zip(nodes, g.beats)
    }


def cycle_nodes_brute(nodes: Sequence, succ: Dict) -> Set:
    """Nodes lying on at least one simple directed cycle (exhaustive DFS).

    Exponential; meant for graphs of ≤ 8 nodes.
    """
    on_cycle: Set = set()

    def walk(start, v, visited: Set) -> bool:
        for w in succ[v]:
            if w == start:
                return True
            if w in visited:
                continue
            visited.add(w)
            hit = walk(start, w, visited)
            visited.discard(w)
            if hit:
                return True
        return False

    for v in nodes:
        if walk(v, v, {v}):
            on_cycle.add(v)
    return on_cycle


def simple_cycles_brute(nodes: Sequence, succ: Dict) -> List[List]:
    """All simple directed cycles, each reported from its first node in
    ``nodes`` order."""
    order = {v: i for i, v in enumerate(nodes)}
    cycles: List[List] = []

    def walk(start, v, path: List, visited: Set) -> None:
        for w in succ[v]:
            if order[w] < order[start]:
                continue
            if w == start:
                cycles.append(list(path))
                continue
            if w in visited:
                continue
            visited.add(w)
            path.append(w)
            walk(start, w, path, visited)
            path.pop()
            visited.discard(w)

    for v in nodes:
        walk(v, v, [v], {v})
    return cycles


def longest_cycle(g: BeatingGraph) -> List[Die]:
    """The first longest simple cycle in :func:`simple_cycles_brute` order;
    [] when acyclic.  Exponential; meant for graphs of ≤ 16 nodes."""
    return max(simple_cycles_brute(dice_tuples(g.faces), successors(g)), key=len, default=[])


def parse_die(text: str) -> Die:
    """Inverse of ``die_label``: digits string or comma-separated faces."""
    text = text.strip()
    if "," in text:
        faces = [int(tok) for tok in text.split(",")]
    else:
        if not text.isdigit():
            raise ValueError(f"cannot parse die {text!r}")
        faces = [int(ch) for ch in text]
    return tuple(sorted(faces))


def _perfect_matching(cost: List[List[float]], t: float) -> bool:
    """Whether the square ``cost`` matrix has a perfect matching using only
    entries ≤ t (augmenting paths)."""
    size = len(cost)
    owner = [-1] * size  # column -> row

    def augment(r: int, seen: Set[int]) -> bool:
        for c in range(size):
            if cost[r][c] <= t and c not in seen:
                seen.add(c)
                if owner[c] < 0 or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    return all(augment(r, set()) for r in range(size))


def bottleneck_distance(xs: Sequence[Bar], ys: Sequence[Bar]) -> float:
    """Bottleneck distance between two diagrams of one dimension.

    Closed bars are points (birth, death) under the L∞ distance; a point
    may also be matched to the diagonal at (death − birth)/2.  Each diagram
    is padded with diagonal copies of the other's points, and the answer is
    the smallest candidate cost admitting a perfect matching (binary
    search).  Open bars are matched among themselves by birth alone, in
    sorted order; unequal numbers of them give infinity.
    """
    open_x = sorted(b.birth for b in xs if b.open)
    open_y = sorted(b.birth for b in ys if b.open)
    if len(open_x) != len(open_y):
        return math.inf
    essential = max((abs(p - q) for p, q in zip(open_x, open_y)), default=0.0)
    p = [(b.birth, b.death) for b in xs if not b.open]
    q = [(b.birth, b.death) for b in ys if not b.open]
    n, m = len(p), len(q)
    # Rows: p, then the diagonal copies of q.  Columns: q, then those of p.
    cost = [[math.inf] * (n + m) for _ in range(n + m)]
    for i, (b, d) in enumerate(p):
        for j, (c, e) in enumerate(q):
            cost[i][j] = max(abs(b - c), abs(d - e))
        cost[i][m + i] = (d - b) / 2
    for j, (c, e) in enumerate(q):
        cost[n + j][j] = (e - c) / 2
        for i in range(n):
            cost[n + j][m + i] = 0.0
    candidates = sorted({c for row in cost for c in row if c < math.inf} | {0.0})
    lo, hi = 0, len(candidates) - 1  # every finite entry admits a matching
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching(cost, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(essential, candidates[lo])


# ------------------------------------------------------------ reference loops

PLANAR_PAIR_FUNCTIONS = {
    "euclidean": lambda a, b: math.hypot(a[0] - b[0], a[1] - b[1]),
    "taxicab": lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]),
    "supremum": lambda a, b: max(abs(a[0] - b[0]), abs(a[1] - b[1])),
}


def pairwise_loop(items: Sequence, fn) -> np.ndarray:
    """Symmetric matrix with ``fn`` evaluated once per pair i < j."""
    n = len(items)
    d = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = fn(items[i], items[j])
    return d


def distance_matrix_loop(points, metric: str) -> np.ndarray:
    pts = [(float(x), float(y)) for x, y in points]
    return pairwise_loop(pts, PLANAR_PAIR_FUNCTIONS[metric])


def sample_region_loop(region: Region, n: int, seed: int) -> np.ndarray:
    """Rejection sampler testing one candidate point at a time."""
    rng = np.random.default_rng(seed)
    (cx, cy), r = region.outer.center, region.outer.radius

    def inside(x: float, y: float) -> bool:
        if not math.hypot(x - cx, y - cy) < r:
            return False
        return all(
            math.hypot(x - h.center[0], y - h.center[1]) > h.radius
            for h in region.holes
        )

    points: List[Tuple[float, float]] = []
    while len(points) < n:
        batch = 4 * (n - len(points)) + 64
        xs = rng.uniform(cx - r, cx + r, size=batch)
        ys = rng.uniform(cy - r, cy + r, size=batch)
        for x, y in zip(xs, ys):
            if inside(float(x), float(y)) and len(points) < n:
                points.append((float(x), float(y)))
    return np.array(points)


def edge_order_loop(m: DistanceMatrix) -> List[Tuple[float, int, int]]:
    """Every pair i < j as a (d, i, j) tuple, sorted."""
    n = m.n
    return sorted(
        (float(m.entries[i, j]), i, j) for i in range(n) for j in range(i + 1, n)
    )


class WinCount(collections.namedtuple("WinCount", ["wins", "ties", "losses"])):
    """Exhaustive face-pair outcome counts for an ordered pair of dice."""

    @property
    def total(self) -> int:
        return self.wins + self.ties + self.losses


def dice_brute(sides: int, max_face: int, face_sum: int) -> Tuple[Die, ...]:
    """Every non-decreasing ``sides``-tuple over 1..``max_face`` summing to
    ``face_sum``, in lexicographic order, by filtering all of them."""
    faces = itertools.combinations_with_replacement(range(1, max_face + 1), sides)
    return tuple(d for d in faces if sum(d) == face_sum)


def beating_probability(x: Die, y: Die) -> WinCount:
    """Count all n² ordered face pairs of ``x`` rolled against ``y``."""
    if len(x) != len(y):
        raise ValueError(f"side counts differ: {len(x)} vs {len(y)}")
    wins = ties = 0
    for a in x:
        for b in y:
            if a > b:
                wins += 1
            elif a == b:
                ties += 1
    return WinCount(wins, ties, len(x) * len(y) - wins - ties)


def beats_loop(x: Die, y: Die, convention: str) -> bool:
    """Whether ``x`` beats ``y`` under the given tie convention."""
    wc = beating_probability(x, y)
    if convention == "strict":
        return 2 * wc.wins > wc.total
    return wc.wins > wc.losses


def shortest_path_matrix_loop(g: BeatingGraph) -> np.ndarray:
    """Round-trip hop counts by BFS from every node."""
    succ = successors(g)

    def hops(src: Die) -> Dict[Die, int]:
        dist = {src: 0}
        queue = collections.deque([src])
        while queue:
            v = queue.popleft()
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    nodes = dice_tuples(g.faces)
    table = {v: hops(v) for v in nodes}
    return pairwise_loop(nodes, lambda x, y: table[x][y] + table[y][x])


def similarity_matrix_loop(D) -> np.ndarray:
    n = len(D)

    def dist(i: int, j: int) -> float:
        total = 0
        for k in range(n):
            if k != i and k != j:
                total += (int(D[k][i]) - int(D[k][j])) ** 2
        return math.sqrt(total)

    return pairwise_loop(range(n), dist)


def euclidean_dice(x: Die, y: Die) -> float:
    if len(x) != len(y):
        raise ValueError(f"side counts differ: {len(x)} vs {len(y)}")
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))


def foliation(x: Die) -> int:
    """x₁ − 1 + 6 − x₆ for a 6-sided die with faces in 1..6.

    The constants 1 and 6 are part of the definition; other spaces are
    rejected rather than silently generalized.
    """
    if len(x) != 6 or x[0] < 1 or x[-1] > 6:
        raise ValueError(
            f"foliation is defined on 6-sided dice with faces in [1, 6], got {x}"
        )
    return x[0] - 1 + 6 - x[-1]


def symmetry(x: Die, pairing: str = "literal") -> Fraction:
    """Σ ((dᵢ + d_pair)/2 − 7/2)² over three face pairs, exact.

    ``literal`` pairs face i with face n−i — (d₁,d₅), (d₂,d₄), (d₃,d₃) —
    as the defining formula reads; ``opposite`` pairs face i with face
    n+1−i — (d₁,d₆), (d₂,d₅), (d₃,d₄) — the physically opposite faces.
    """
    if len(x) != 6:
        raise ValueError(f"symmetry is defined on 6-sided dice, got {len(x)} sides")
    if pairing == "literal":
        pairs = ((x[0], x[4]), (x[1], x[3]), (x[2], x[2]))
    elif pairing == "opposite":
        pairs = ((x[0], x[5]), (x[1], x[4]), (x[2], x[3]))
    else:
        raise ValueError(
            f"unknown symmetry pairing {pairing!r}; choose from ('literal', 'opposite')"
        )
    total = Fraction(0)
    for a, b in pairs:
        term = Fraction(a + b, 2) - Fraction(7, 2)
        total += term * term
    return total


def foliation_symmetry_distance(x: Die, y: Die, pairing: str = "literal") -> Fraction:
    """|(s(x) + f(x)) − (s(y) + f(y))|, exact."""
    sx = symmetry(x, pairing) + foliation(x)
    sy = symmetry(y, pairing) + foliation(y)
    return abs(sx - sy)


def foliation_symmetry_matrix_loop(nodes: Sequence[Die], pairing: str) -> np.ndarray:
    return pairwise_loop(
        nodes, lambda x, y: float(foliation_symmetry_distance(x, y, pairing))
    )


def barcode_csv_lines_loop(bc: Barcode) -> List[str]:
    """The bar lines of a barcode CSV, one record and two ``fmt`` calls per bar."""
    return [
        f"{b.dim},{fmt(b.birth)},{fmt(b.death)},{int(b.open)}"
        for b in bc.bars + bc.zero_length
    ]


def distance_csv_lines_loop(m: DistanceMatrix) -> List[str]:
    """The matrix lines of a distance CSV, one ``fmt`` call per entry."""
    return [",".join(fmt(v) for v in row) for row in m.entries.tolist()]


def bar_stats_loop(bc: Barcode, dim: int) -> BarStats:
    """Lifespans of one dimension's bar records, summed left to right."""
    spans = [(1.0 - b.birth) if b.open else (b.death - b.birth) for b in in_dim(bc, dim)]
    if not spans:
        return BarStats(dim, 0, None, None, None)
    total = 0.0
    for x in spans:
        total += x
    return BarStats(dim, len(spans), total / len(spans), min(spans), max(spans))
