"""Non-transitive dice: enumeration, beating graphs, and graph distances.

A die is a canonical (non-decreasing) tuple of integer faces.  All arithmetic
in this module is exact — win counts are int64 arrays, the constants are
Fractions — and is converted to floats only at distance-matrix assembly.

Two tie conventions for "Y beats X" are supported, because win counts can
include ties:

* ``strict``   — wins / n² > 1/2  (ties count against both sides)
* ``majority`` — wins > losses    (ties are ignored)

The default space DT(6) is all 6-sided dice with faces in 1..6 summing to 21.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .metrics import DistanceMatrix, pairwise

Die = Tuple[int, ...]

TIE_CONVENTIONS = ("strict", "majority")
SYMMETRY_PAIRINGS = ("literal", "opposite")


class UnreachableNodeError(ValueError):
    """No directed path exists between two nodes of the beating graph."""


def die_label(d: Die) -> str:
    """Render a die as concatenated digits (comma-joined when faces > 9)."""
    if all(f <= 9 for f in d):
        return "".join(str(f) for f in d)
    return ",".join(str(f) for f in d)


def enumerate_dice(sides: int, max_face: int, face_sum: int) -> Tuple[Die, ...]:
    """Every canonical die with ``sides`` faces in 1..``max_face`` summing to
    ``face_sum``: each non-decreasing tuple once, in lexicographic order.  An
    infeasible sum yields no dice."""
    if sides < 1 or max_face < 1:
        raise ValueError("sides and max_face must be positive")
    out: List[Die] = []

    def rec(prefix: List[int], lo: int, remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for v in range(lo, max_face + 1):
            rest = remaining - v
            # The remaining slots must be fillable with values in [v, max_face].
            if rest < v * (slots - 1) or rest > max_face * (slots - 1):
                continue
            prefix.append(v)
            rec(prefix, v, rest, slots - 1)
            prefix.pop()

    rec([], 1, face_sum, sides)
    return tuple(out)


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class BeatingGraph:
    """Directed graph with an edge X → Y whenever X beats Y.

    Nodes are kept in lexicographic order.  ``wins[i, j]`` counts the face
    pairs where die ``i`` rolls higher than die ``j``; losses are ``wins.T``
    and ties ``sides² − wins − wins.T``.  ``beats[i, j]`` is the edge
    ``nodes[i]`` → ``nodes[j]``.
    """

    nodes: Tuple[Die, ...]
    wins: np.ndarray  # (n, n) int64
    beats: np.ndarray  # (n, n) bool
    convention: str

    @property
    def n(self) -> int:
        return len(self.nodes)


def build_beating_graph(dice: Iterable[Die], convention: str) -> BeatingGraph:
    """Win counts of every ordered pair of dice, and the edges they imply.

    With ``hist[i, a]`` the faces of die ``i`` equal to ``values[a]`` and
    ``below[j, a]`` the faces of die ``j`` below it, the win counts are the
    integer product ``hist @ below.T``.
    """
    if convention not in TIE_CONVENTIONS:
        raise ValueError(
            f"unknown tie convention {convention!r}; choose from {TIE_CONVENTIONS}"
        )
    nodes = tuple(sorted(dice))
    k = len(nodes[0]) if nodes else 0
    if any(len(d) != k for d in nodes):
        raise ValueError(f"side counts differ: {sorted({len(d) for d in nodes})}")
    faces = np.array(nodes, dtype=np.int64).reshape(len(nodes), k)
    values = np.arange(faces.min(initial=0), faces.max(initial=0) + 1)
    hist = (faces[:, :, None] == values).sum(axis=1, dtype=np.int64)
    below = (faces[:, :, None] < values).sum(axis=1, dtype=np.int64)
    wins = hist @ below.T
    beats = 2 * wins > k * k if convention == "strict" else wins > wins.T
    return BeatingGraph(nodes=nodes, wins=wins, beats=beats, convention=convention)


def induced_subgraph(g: BeatingGraph, keep: Iterable[Die]) -> BeatingGraph:
    pos = {v: k for k, v in enumerate(g.nodes)}
    keep_set = frozenset(keep)
    missing = keep_set - pos.keys()
    if missing:
        raise ValueError(f"nodes not in graph: {sorted(missing)}")
    idx = sorted(pos[v] for v in keep_set)
    ix = np.ix_(idx, idx)
    return BeatingGraph(tuple(g.nodes[k] for k in idx), g.wins[ix], g.beats[ix], g.convention)


def _hops(g: BeatingGraph) -> np.ndarray:
    """``hops[i, j]``: edges on a shortest directed path i → j, −1 if none.

    Breadth-first from every node at once, one boolean product per step.
    """
    hops = np.where(np.eye(g.n, dtype=bool), 0.0, -1.0)
    frontier = hops == 0
    step = 0
    while frontier.any():
        step += 1
        frontier = (frontier @ g.beats) & (hops < 0)
        hops[frontier] = step
    return hops


def non_transitive_subset(g: BeatingGraph) -> Tuple[Die, ...]:
    """Nodes lying on at least one directed cycle of length >= 2.

    Node i is on a cycle exactly when some other node j is reachable from i
    and i from j.
    """
    reach = _hops(g) > 0
    return tuple(g.nodes[i] for i in np.flatnonzero((reach & reach.T).any(axis=1)))


def shortest_path_matrix(g: BeatingGraph) -> np.ndarray:
    """All-pairs round-trip hop counts, ordered like ``g.nodes``.

    Symmetrizing by the round trip makes this a metric on any strongly
    connected graph; a missing path in either direction is an error, not a
    sentinel value.  Counts are exact in the float64 array that holds them.
    """
    hops = _hops(g)
    i, j = np.triu_indices(g.n, k=1)
    missing = np.flatnonzero((hops[i, j] < 0) | (hops[j, i] < 0))
    if missing.size:
        a, b = i[missing[0]], j[missing[0]]
        if hops[a, b] >= 0:
            a, b = b, a
        raise UnreachableNodeError(
            f"no directed path {die_label(g.nodes[a])} -> {die_label(g.nodes[b])}"
        )
    return hops + hops.T


def similarity_matrix(D: np.ndarray) -> np.ndarray:
    """Euclidean distances between shortest-path profile columns.

    Comparing columns i and j, the entries at BOTH positions i and j are
    removed from each column, so the profiles live in R^(n-2) and describe
    how the two nodes relate to the rest of the graph only.  Nodes with
    identical in/out neighborhoods come out at distance exactly 0.
    """
    cols = np.asarray(D, dtype=float).T  # integer-valued: every sum is exact

    def dist(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        diff = cols[i] - cols[j]
        rows = np.arange(len(i))
        diff[rows, i] = diff[rows, j] = 0
        return np.sqrt((diff * diff).sum(axis=1))

    return pairwise(len(cols), dist)


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
            f"unknown symmetry pairing {pairing!r}; choose from {SYMMETRY_PAIRINGS}"
        )
    total = Fraction(0)
    for a, b in pairs:
        term = Fraction(a + b, 2) - Fraction(7, 2)
        total += term * term
    return total


def _labels(nodes: Sequence[Die]) -> Tuple[str, ...]:
    return tuple(die_label(d) for d in nodes)


def similarity_distance_matrix(g: BeatingGraph) -> DistanceMatrix:
    """Similarity distances over the graph's nodes (floats only here)."""
    sim = similarity_matrix(shortest_path_matrix(g))
    return DistanceMatrix(entries=sim, labels=_labels(g.nodes), metric="similarity")


def euclidean_dice_distance_matrix(nodes: Sequence[Die]) -> DistanceMatrix:
    faces = np.array(nodes, dtype=float)  # small integers: exact sums
    d = pairwise(len(faces), lambda i, j: np.sqrt(((faces[i] - faces[j]) ** 2).sum(axis=1)))
    return DistanceMatrix(entries=d, labels=_labels(nodes), metric="euclidean")


def foliation_symmetry_distance_matrix(
    nodes: Sequence[Die], pairing: str = "literal"
) -> DistanceMatrix:
    """|(s(x) + f(x)) − (s(y) + f(y))| on every pair — a pullback of |·|, so a
    pseudometric that may vanish on distinct dice.  s + f is a small multiple
    of 1/4, so the float differences are exact."""
    values = np.array([float(symmetry(x, pairing) + foliation(x)) for x in nodes])
    d = pairwise(len(values), lambda i, j: np.abs(values[i] - values[j]))
    return DistanceMatrix(
        entries=d, labels=_labels(nodes), metric="foliation-symmetry"
    )


def to_dot(g: BeatingGraph) -> str:
    """Render the graph in DOT format, deterministically ordered.

    Edges carry their exhaustive win counts as labels (``wins/sides²``).
    """
    total = len(g.nodes[0]) ** 2 if g.nodes else 0
    lines = ["digraph beating {", f"  // tie convention: {g.convention}"]
    for v in g.nodes:
        lines.append(f'  "{die_label(v)}";')
    for i, j in np.argwhere(g.beats):
        x, y = die_label(g.nodes[i]), die_label(g.nodes[j])
        lines.append(f'  "{x}" -> "{y}" [label="{g.wins[i, j]}/{total}"];')
    lines.append("}")
    return "\n".join(lines)
