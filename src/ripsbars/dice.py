"""Non-transitive dice: enumeration, beating graphs, and graph distances.

A die is one non-decreasing row of an (n, sides) int64 face array, and a set
of dice is row indices into it; tuples of faces appear only in printed labels.
All arithmetic in this module is exact — win counts, hop counts and four
times the foliation-symmetry values are int64 arrays — and is converted to
floats only at distance-matrix assembly.

Two tie conventions for "Y beats X" are supported, because win counts can
include ties:

* ``strict``   — wins / n² > 1/2  (ties count against both sides)
* ``majority`` — wins > losses    (ties are ignored)

The default space DT(6) is all 6-sided dice with faces in 1..6 summing to 21.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .metrics import DistanceMatrix

TIE_CONVENTIONS = ("strict", "majority")
#: The face columns each symmetry pairing adds up.  ``literal`` pairs face i
#: with face n−i — (d₁,d₅), (d₂,d₄), (d₃,d₃) — as the defining formula reads;
#: ``opposite`` pairs face i with face n+1−i — (d₁,d₆), (d₂,d₅), (d₃,d₄) — the
#: physically opposite faces.
SYMMETRY_PAIRINGS = {
    "literal": ((0, 4), (1, 3), (2, 2)),
    "opposite": ((0, 5), (1, 4), (2, 3)),
}
#: Largest dice space enumerated.  The beating graph holds n² win counts and
#: the non-transitive search takes boolean matrix products, O(n³) each:
#: 974 dice take about 1.4 s there on a 2-vCPU x86-64 VM.  The paper's space
#: DT(6) has 32.
MAX_DICE = 1024
#: Largest number of faces (dice times sides) enumerated, so MAX_DICE binds
#: up to 32 sides: each enumeration step copies every kept prefix, and the
#: beating graph's histograms grow with the sides as with the dice.
MAX_FACES = 32 * MAX_DICE


class UnreachableNodeError(ValueError):
    """No directed path exists between two nodes of the beating graph."""


def die_label(d: List[int]) -> str:
    """Render a die as concatenated digits (comma-joined when faces > 9)."""
    if all(f <= 9 for f in d):
        return "".join(str(f) for f in d)
    return ",".join(str(f) for f in d)


def enumerate_dice(sides: int, max_face: int, face_sum: int) -> np.ndarray:
    """Every canonical die with ``sides`` faces in 1..``max_face`` summing to
    ``face_sum``: an (n, sides) int64 array holding each non-decreasing row
    once, in lexicographic order.  An infeasible sum yields zero rows.

    The space grows one face at a time, as one int64 row per feasible prefix
    in lexicographic order.  A prefix with ``rest`` of the sum left and
    ``slots`` faces to place after the next one takes every next face v from
    its last face up with ``v * slots <= rest - v <= max_face * slots``: the
    remaining slots can still reach the sum with faces in [v, max_face].
    Those faces form an interval, so they are counted before any row is
    built, whatever ``max_face``.  Every kept prefix completes to at least
    one die, so a step that keeps more than ``MAX_DICE`` prefixes, or more
    than ``MAX_FACES // sides``, proves the space too large, and it is
    refused before that step copies any row.

    Before any int64 arithmetic, ``max_face`` is clamped in Python ints to
    ``face_sum - sides + 1``, the largest face left beside ``sides - 1``
    ones, and ``max_face * slots`` to ``face_sum``, past which the lower
    bound is below every face anyway; so any ``max_face`` works with a
    ``face_sum`` below 2**63."""
    if sides < 1 or max_face < 1:
        raise ValueError("sides and max_face must be positive")
    if face_sum < sides:
        return np.zeros((0, 0), dtype=np.int64)
    max_face = min(max_face, face_sum - sides + 1)
    limit = min(MAX_DICE, MAX_FACES // sides)
    dice = np.zeros((1, 0), dtype=np.int64)
    for slots in range(sides - 1, -1, -1):
        rest = face_sum - dice.sum(axis=1)
        low = np.maximum(dice[:, -1] if dice.shape[1] else 1,
                         rest - min(max_face * slots, face_sum))
        count = np.maximum(np.minimum(max_face, rest // (slots + 1)) - low + 1, 0)
        if count.sum() > limit:
            raise ValueError(
                f"more than {limit} dice with {sides} faces in 1..{max_face} summing to "
                f"{face_sum}: too many for the beating graph, which takes at most "
                f"{MAX_DICE} dice and {MAX_FACES} faces in all"
            )
        rows = np.repeat(np.arange(len(dice)), count)
        step = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
        dice = np.column_stack((dice[rows], low[rows] + step))
    return dice


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class BeatingGraph:
    """Directed graph with an edge X → Y whenever X beats Y.

    Node ``i`` is die ``faces[i]``.  ``wins[i, j]`` counts the face pairs
    where die ``i`` rolls higher than die ``j``; losses are ``wins.T`` and
    ties ``sides² − wins − wins.T``.  ``beats[i, j]`` is the edge i → j.
    """

    faces: np.ndarray  # (n, sides) int64
    wins: np.ndarray  # (n, n) int64
    beats: np.ndarray  # (n, n) bool
    convention: str

    @property
    def n(self) -> int:
        return len(self.faces)


def build_beating_graph(faces: np.ndarray, convention: str) -> BeatingGraph:
    """Win counts of every ordered pair of dice, and the edges they imply.

    The dice are the rows of ``faces``, put in lexicographic order.  With
    ``values`` the distinct faces, ``hist[i, a]`` the faces of die ``i``
    equal to ``values[a]`` and ``below[j, a]`` the faces of die ``j`` below
    it, the win counts are the integer product ``hist @ below.T``.
    """
    if convention not in TIE_CONVENTIONS:
        raise ValueError(
            f"unknown tie convention {convention!r}; choose from {TIE_CONVENTIONS}"
        )
    try:
        faces = np.asarray(faces, dtype=np.int64)
    except ValueError as exc:  # rows of different lengths
        raise ValueError(f"side counts differ: {exc}") from None
    if faces.size:  # lexsort needs a key column
        faces = faces[np.lexsort(faces.T[::-1])]
    k = faces.shape[1]
    # Not np.unique: without return_inverse, numpy 2 imports numpy.ma for it.
    values = np.sort(faces, axis=None)
    values = values[np.diff(values, prepend=0) > 0]  # faces are >= 1
    hist = (faces[:, :, None] == values).sum(axis=1, dtype=np.int64)
    below = (faces[:, :, None] < values).sum(axis=1, dtype=np.int64)
    wins = hist @ below.T
    beats = 2 * wins > k * k if convention == "strict" else wins > wins.T
    return BeatingGraph(faces=faces, wins=wins, beats=beats, convention=convention)


def induced_subgraph(g: BeatingGraph, rows: np.ndarray) -> BeatingGraph:
    """The graph on the dice at ``rows`` of ``g.faces``, in that order."""
    ix = np.ix_(rows, rows)
    return BeatingGraph(g.faces[rows], g.wins[ix], g.beats[ix], g.convention)


def _hops(g: BeatingGraph) -> np.ndarray:
    """``hops[i, j]``: edges on a shortest directed path i → j, −1 if none.

    Breadth-first from every node at once, one boolean product per step.
    """
    hops = np.eye(g.n, dtype=np.int64) - 1
    frontier = hops == 0
    step = 0
    while frontier.any():
        step += 1
        frontier = (frontier @ g.beats) & (hops < 0)
        hops[frontier] = step
    return hops


def non_transitive_subset(g: BeatingGraph) -> np.ndarray:
    """Ascending rows of the dice on at least one directed cycle of length >= 2.

    Node i is on a cycle exactly when some other node j is reachable from i
    and i from j.
    """
    reach = _hops(g) > 0
    return np.flatnonzero((reach & reach.T).any(axis=1))


def shortest_path_matrix(g: BeatingGraph) -> np.ndarray:
    """All-pairs round-trip hop counts, ordered like ``g.faces``.

    Symmetrizing by the round trip makes this a metric on any strongly
    connected graph; a missing path in either direction is an error, not a
    sentinel value.  The counts are an int64 array.
    """
    hops = _hops(g)
    i, j = np.triu_indices(g.n, k=1)
    missing = np.flatnonzero((hops[i, j] < 0) | (hops[j, i] < 0))
    if missing.size:
        a, b = i[missing[0]], j[missing[0]]
        if hops[a, b] >= 0:
            a, b = b, a
        raise UnreachableNodeError("no directed path {} -> {}".format(*_labels(g.faces[[a, b]])))
    return hops + hops.T


def _squared_distances(rows: np.ndarray) -> np.ndarray:
    """|r_i − r_j|² between the integer rows r of ``rows``, as
    G_ii + G_jj − 2 G_ij over the Gram matrix G = r rᵀ.  Every term is an
    integer in int64, where a product that wraps cancels again, so each entry
    is exact whenever the squared distance itself fits."""
    gram = rows @ rows.T
    norms = gram.diagonal()
    return norms[:, None] + norms - 2 * gram


def similarity_matrix(D: np.ndarray) -> np.ndarray:
    """Euclidean distances between shortest-path profile columns.

    Comparing columns i and j, the entries at BOTH positions i and j are
    removed from each column, so the profiles live in R^(n-2) and describe
    how the two nodes relate to the rest of the graph only.  Nodes with
    identical in/out neighborhoods come out at distance exactly 0.

    The squared distance is |c_i − c_j|² over the full columns, less the two
    removed terms (D_ii − D_ij)² and (D_ji − D_jj)².  On integer hop counts
    every term is an integer, exact in int64 (and in float64 below 2**53), so
    the one rounding is the square root.
    """
    D = np.asarray(D)
    diag = D.diagonal()
    removed = (diag[:, None] - D) ** 2 + (D.T - diag) ** 2
    return np.sqrt(_squared_distances(D.T) - removed)


def _labels(faces: np.ndarray) -> Tuple[str, ...]:
    return tuple(map(die_label, faces.tolist()))


def similarity_distance_matrix(g: BeatingGraph) -> DistanceMatrix:
    """Similarity distances over the graph's nodes (floats only here)."""
    sim = similarity_matrix(shortest_path_matrix(g))
    return DistanceMatrix(entries=sim, labels=_labels(g.faces), metric="similarity")


def euclidean_dice_distance_matrix(faces: np.ndarray) -> DistanceMatrix:
    """Euclidean distances between the rows of the int64 ``faces``, exact up
    to the square root, like :func:`similarity_matrix`."""
    d = np.sqrt(_squared_distances(faces))
    return DistanceMatrix(entries=d, labels=_labels(faces), metric="euclidean")


def foliation_symmetry_distance_matrix(
    faces: np.ndarray, pairing: str = "literal"
) -> DistanceMatrix:
    """|(s(x) + f(x)) − (s(y) + f(y))| on every pair of rows of ``faces`` — a
    pullback of |·|, so a pseudometric that may vanish on distinct dice.

    Foliation f(x) = x₁ − 1 + 6 − x₆ and symmetry s(x) = Σ ((a + b)/2 − 7/2)²,
    with (a, b) the pairing's three face pairs, are defined on 6-sided dice
    with faces in 1..6; other dice are refused rather than silently
    generalized.  q = Σ (a + b − 7)² + 4 (x₁ + 5 − x₆) is 4 (s + f), an
    exact integer, so each distance |q_x − q_y| / 4 is an exact quarter.
    """
    if pairing not in SYMMETRY_PAIRINGS:
        raise ValueError(
            f"unknown symmetry pairing {pairing!r}; choose from {tuple(SYMMETRY_PAIRINGS)}"
        )
    bad = ((faces < 1) | (faces > 6)).any(axis=1) | (faces.shape[1] != 6)
    if bad.any():
        raise ValueError(
            "foliation-symmetry is defined on 6-sided dice with faces in [1, 6], "
            f"got {tuple(faces[bad.argmax()].tolist())}"
        )
    a, b = np.transpose(SYMMETRY_PAIRINGS[pairing])
    q = ((faces[:, a] + faces[:, b] - 7) ** 2).sum(axis=1) + 4 * (faces[:, 0] + 5 - faces[:, 5])
    d = np.abs(q[:, None] - q) / 4
    return DistanceMatrix(entries=d, labels=_labels(faces), metric="foliation-symmetry")


def to_dot(g: BeatingGraph) -> str:
    """Render the graph in DOT format, deterministically ordered.

    Edges carry their exhaustive win counts as labels (``wins/sides²``).
    """
    total = g.faces.shape[1] ** 2
    labels = _labels(g.faces)
    wins = g.wins.tolist()
    lines = ["digraph beating {", f"  // tie convention: {g.convention}"]
    lines += [f'  "{x}";' for x in labels]
    for i, j in np.argwhere(g.beats).tolist():
        lines.append(f'  "{labels[i]}" -> "{labels[j]}" [label="{wins[i][j]}/{total}"];')
    lines.append("}")
    return "\n".join(lines)
