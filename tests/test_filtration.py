import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_filtration_order, assert_index_rows_equal, coords, coincident, dice_like,
    random_points, symmetric,
)
from oracles import (
    boundary_pairs,
    edge_order_loop,
    facets_by_lookup,
    flag_complex_brute,
    mst_edge_lengths,
    pair_sets,
    simplex_birth_brute,
)
from ripsbars.filtration import build_filtration
from ripsbars.metrics import DistanceMatrix, build_distance_matrix
from ripsbars.persistence import persistence_pairs, reduce_matrix, total_boundary_matrix


def matrix_from(entries):
    return DistanceMatrix(entries=np.array(entries, dtype=float))


def thresholds(m):
    """The critical thresholds: the distinct off-diagonal distances, ascending."""
    return build_filtration(m, max_dim=1).thresholds


def births(f):
    """Birth of each simplex, keyed by its vertex tuple."""
    return {s.vertices: s.birth for s in f.simplices}


def test_critical_thresholds_basic():
    assert thresholds(matrix_from([[0, 1], [1, 0]])) == [1.0]


def test_critical_thresholds_duplicates_collapse():
    m = matrix_from([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
    assert thresholds(m) == [0.5]


def test_critical_thresholds_zero_first_for_duplicate_points():
    """A zero off-diagonal entry (duplicate points) makes 0 the first threshold."""
    m = matrix_from([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    assert thresholds(m) == [0.0, 1.0]


clouds = st.one_of(
    st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
    # integer grid points: many tied distances and coincident points
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=12),
)


@settings(max_examples=60, deadline=None)
@given(clouds, st.sampled_from(["euclidean", "taxicab", "supremum"]))
def test_sorted_edges_match_tuple_sort(pts, metric):
    """Dimension 1 holds every pair i < j in (d, i, j) order, and the
    thresholds are its distinct distances."""
    m = build_distance_matrix(pts, metric)
    f = build_filtration(m, max_dim=1)
    ref = edge_order_loop(m)
    assert f.vertices[1].shape == (len(ref), 2)
    assert np.array_equal(f.births[1], [t[0] for t in ref])
    assert np.array_equal(f.vertices[1][:, 0], [t[1] for t in ref])
    assert np.array_equal(f.vertices[1][:, 1], [t[2] for t in ref])
    assert f.thresholds == sorted({t[0] for t in ref})


def test_critical_thresholds_single_point():
    assert thresholds(matrix_from([[0]])) == []


def test_expand_triangle_completes_at_third_edge():
    m = matrix_from([[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
    f = build_filtration(m, max_dim=2)
    assert [(span.threshold, span.end - span.start) for span in f.spans] == [
        (0.0, 3), (1.0, 1), (1.5, 1), (2.0, 2)
    ]
    assert births(f)[(0, 1, 2)] == 2.0
    assert f.simplices[-1].vertices == (0, 1, 2)


def test_four_close_points_full_complex():
    pts = [(0, 0), (0.1, 0), (0, 0.1), (0.1, 0.1)]
    f = build_filtration(build_distance_matrix(pts, "euclidean"), max_dim=3)
    dims = [s.dim for s in f.simplices]
    assert dims.count(0) == 4
    assert dims.count(1) == 6
    assert dims.count(2) == 4
    assert dims.count(3) == 1


def test_square_has_no_triangles_at_one(square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    for s in f.simplices:
        if s.dim == 2:
            assert s.birth == pytest.approx(math.sqrt(2))
    at_one = [s for s in f.simplices if s.birth <= 1.0]
    assert all(s.dim <= 1 for s in at_one)


def test_duplicate_points_simplex_at_zero():
    """k coincident points form their shared (k−1)-simplex at ε = 0."""
    pts = [(0, 0), (0, 0), (0, 0), (1, 0)]
    f = build_filtration(build_distance_matrix(pts, "euclidean"), max_dim=3)
    assert births(f)[(0, 1, 2)] == 0.0
    assert f.thresholds[0] == 0.0


def test_duplicate_points_respect_dim_cap():
    pts = [(0, 0)] * 4
    f = build_filtration(build_distance_matrix(pts, "euclidean"), max_dim=2)
    assert max(s.dim for s in f.simplices) == 2
    assert (0, 1, 2, 3) not in births(f)


def assert_faces_precede_cofaces(f):
    """Each facet of a simplex (its vertices less one) sits earlier and is
    born no later, and the reference boundary matrix lists exactly the
    facet positions, ascending."""
    position = {s.vertices: j for j, s in enumerate(f.simplices)}
    assert len(position) == len(f.simplices)
    columns = total_boundary_matrix(f).columns
    for j, s in enumerate(f.simplices):
        facets = [position[c] for c in combinations(s.vertices, s.dim)] if s.dim else []
        for i in facets:
            assert i < j
            assert f.simplices[i].dim == s.dim - 1
            assert f.simplices[i].birth <= s.birth
        assert columns[j] == sorted(facets)


def assert_sorted_by_birth_dim_vertices(f):
    """The records view, and each dimension's rows, which the pairing reads
    in place: (birth, vertices) order, vertices strictly ascending in a row."""
    keys = [(s.birth, s.dim, s.vertices) for s in f.simplices]
    assert keys == sorted(keys)
    for rows, births in zip(f.vertices, f.births):
        keys = list(zip(births.tolist(), map(tuple, rows.tolist())))
        assert keys == sorted(keys)
        assert all(list(v) == sorted(set(v)) for _, v in keys)


def test_order_soundness_faces_precede_cofaces(square_matrix):
    assert_faces_precede_cofaces(build_filtration(square_matrix, max_dim=2))


def test_filtration_sorted_by_birth_dim_vertices(square_matrix):
    assert_sorted_by_birth_dim_vertices(build_filtration(square_matrix, max_dim=2))


def test_two_points_stopping():
    m = matrix_from([[0, 1], [1, 0]])
    f = build_filtration(m, max_dim=2, stop_when_connected=True)
    births = [(s.dim, s.birth) for s in f.simplices]
    assert births == [(0, 0.0), (0, 0.0), (1, 1.0)]
    assert f.span_end == 1.0
    assert not f.stopped_early  # nothing remained after ε = 1


def test_collinear_points_stop_at_second_threshold():
    pts = [(0, 0), (1, 0), (3, 0)]
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=2, stop_when_connected=True)
    assert f.thresholds == [1.0, 2.0]
    assert f.stopped_early  # the 0–2 pair at distance 3 was never processed
    assert f.span_end == 2.0


def test_unstopped_filtration_runs_past_connectivity():
    pts = [(0, 0), (1, 0), (3, 0)]
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=2, stop_when_connected=False)
    assert f.thresholds == [1.0, 2.0, 3.0]
    assert f.span_end == 3.0
    assert not f.stopped_early


def test_single_point_trivially_connected():
    f = build_filtration(matrix_from([[0]]), max_dim=2, stop_when_connected=True)
    assert len(f.simplices) == 1
    assert f.thresholds == []
    assert f.span_end == 0.0
    assert not f.stopped_early


def test_max_dim_zero_keeps_only_vertices():
    m = matrix_from([[0, 1], [1, 0]])
    f = build_filtration(m, max_dim=0)
    assert [s.dim for s in f.simplices] == [0, 0]
    assert f.thresholds == [1.0]
    # The stop follows the neighborhood graph, not the kept simplices.
    pts = [(0, 0), (1, 0), (3, 0)]
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=0, stop_when_connected=True)
    assert [s.dim for s in f.simplices] == [0, 0, 0]
    assert f.thresholds == [1.0, 2.0]
    assert [(span.start, span.end) for span in f.spans] == [(0, 3), (3, 3), (3, 3)]
    assert f.stopped_early


def test_monotone_growth_across_thresholds(square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    seen = set()
    previous = set()
    for span in f.spans:
        current = previous | {
            f.simplices[i].vertices for i in range(span.start, span.end)
        }
        assert previous <= current
        previous = current
        seen |= current
    assert seen == set(births(f))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
def test_flag_property_matches_brute_force(seed, n):
    """At every threshold the simplex set equals brute-force clique search,
    every simplex is born exactly when its longest edge appears, and the
    order is (birth, dim, vertices) with every face before its cofaces."""
    rng = np.random.default_rng(seed)
    pts = random_points(rng, n)
    max_dim = int(rng.integers(1, 4))
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=max_dim)
    for eps in f.thresholds:
        have = {s.vertices for s in f.simplices if s.birth <= eps}
        assert have == flag_complex_brute(m, eps, max_dim)
    for s in f.simplices:
        assert s.birth == simplex_birth_brute(m, s.vertices)
    assert_sorted_by_birth_dim_vertices(f)
    assert_faces_precede_cofaces(f)


@settings(max_examples=60, deadline=None)
@given(clouds, st.sampled_from(["euclidean", "taxicab", "supremum"]), st.sampled_from([0, 1, 2]))
def test_stop_path_matches_minimum_spanning_tree(pts, metric, max_dim):
    """A stopped filtration ends at the longest minimum-spanning-tree edge
    and is the prefix of the full one born by then."""
    m = build_distance_matrix(pts, metric)
    stopped = build_filtration(m, max_dim=max_dim, stop_when_connected=True)
    full = build_filtration(m, max_dim=max_dim)
    assert stopped.span_end == max(mst_edge_lengths(m), default=0.0)
    cut = len(stopped.simplices)
    assert stopped.simplices == full.simplices[:cut]
    assert all(s.birth > stopped.span_end for s in full.simplices[cut:])
    assert stopped.thresholds == [t for t in full.thresholds if t <= stopped.span_end]
    assert stopped.spans == full.spans[:len(stopped.spans)]
    assert stopped.stopped_early == (stopped.span_end < m.max_distance())


@settings(max_examples=120, deadline=None)
@given(st.one_of(dice_like, coincident), st.integers(0, 3))
@example(np.zeros((1, 1)), 2)
@example(np.array([[0.0, 2.0], [2.0, 0.0]]), 1)
@example(np.zeros((2, 2)), 0)
def test_stopped_build_is_the_full_build_cut_at_the_longest_mst_edge(entries, max_dim):
    """Array by array, the stopped filtration is the full one restricted to
    the simplices born by the longest minimum-spanning-tree edge."""
    m = DistanceMatrix(entries=entries)
    stopped = build_filtration(m, max_dim=max_dim, stop_when_connected=True)
    full = build_filtration(m, max_dim=max_dim)
    cut = max(mst_edge_lengths(m), default=math.inf)
    k = len(stopped.vertices)
    assert len(full.vertices) >= k and len(full.births) >= len(stopped.births)
    for arrays, reference in [(stopped.vertices, full.vertices), (stopped.births, full.births)]:
        for a, b, born in zip(arrays, reference, full.births):
            np.testing.assert_array_equal(a, b[born <= cut], strict=True)
    # Each facet array takes the dtype of its own row count below.
    cut_facets = [b[born <= cut] for b, born in zip(full.facets[:k], full.births)]
    assert_index_rows_equal(stopped, cut_facets)
    # The stopped build ends at the cap or at its first empty dimension,
    # and the full one has nothing born by the cut above it.
    top = len(stopped.births) - 1
    assert top == max_dim or not len(stopped.births[top])
    assert all(not (born <= cut).any() for born in full.births[top + 1:])
    h0 = [persistence_pairs(g)[:1] for g in (stopped, full)]
    assert len(h0[0]) == len(h0[1]) == min(max_dim, 1)
    for a, b in zip(*h0):
        np.testing.assert_array_equal(a, b, strict=True)
    assert stopped.thresholds == [t for t in full.thresholds if t <= cut]
    assert stopped.stopped_early == any(t > cut for t in full.thresholds)


@settings(max_examples=60, deadline=None)
@given(clouds, st.sampled_from(["euclidean", "taxicab", "supremum"]),
       st.sampled_from([0, 1, 2, 3]), st.booleans())
def test_merges_are_the_union_find_over_the_kept_edges(pts, metric, max_dim, stop):
    """The H0 pairs of ``persistence_pairs`` end every vertex but 0 once,
    and their edges are a minimum spanning tree's, whether or not the
    filtration stopped; with no edge kept there are no pairs."""
    m = build_distance_matrix(pts, metric)
    f = build_filtration(m, max_dim=max_dim, stop_when_connected=stop)
    pairs = persistence_pairs(f)
    if max_dim == 0:
        assert pairs == []
        return
    assert pairs[0].shape == (2, m.n - 1)
    assert sorted(pairs[0][0].tolist()) == list(range(1, m.n))
    assert sorted(f.births[1][pairs[0][1]]) == sorted(mst_edge_lengths(m))


@settings(max_examples=120, deadline=None)
@given(st.one_of(dice_like, coincident, st.tuples(clouds, st.sampled_from(
    ["euclidean", "taxicab", "supremum"],
)).map(lambda t: build_distance_matrix(*t).entries)), st.integers(0, 3), st.booleans())
@example(np.zeros((1, 1)), 1, False)
@example(np.array([[0.0, 2.0], [2.0, 0.0]]), 1, True)
@example(np.zeros((2, 2)), 3, False)
def test_h0_pairs_equal_boundary_reduction(entries, max_dim, stop):
    """Row by row, the H0 pairs are those of the boundary reduction, which
    pairs each vertex with the edge that kills it in filtration order; tied
    distances and coincident points make many edges tie for that role."""
    f = build_filtration(DistanceMatrix(entries=entries), max_dim=max_dim,
                         stop_when_connected=stop)
    R, _ = reduce_matrix(total_boundary_matrix(f))
    assert pair_sets(f, persistence_pairs(f))[:1] == pair_sets(f, boundary_pairs(R, f))[:1]


def signed_zeros(n, upper, negative):
    """The symmetric (n, n) matrix with ``upper`` above the diagonal, row
    by row, where each zero entry, above or below the diagonal, is -0.0
    when its flag in ``negative`` is set.  It equals its transpose, as
    -0.0 == 0.0."""
    entries = symmetric(n, upper)
    i, j = np.triu_indices(n, k=1)
    rows, columns = np.concatenate((i, j)), np.concatenate((j, i))
    flip = np.array(negative, dtype=bool) & (entries[rows, columns] == 0)
    entries[rows[flip], columns[flip]] = -0.0
    return entries


signed_zero_ties = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.lists(st.booleans(), min_size=n * (n - 1), max_size=n * (n - 1)),
).map(lambda t: signed_zeros(*t)))


@settings(max_examples=150, deadline=None)
@given(signed_zero_ties, st.integers(1, 5), st.booleans())
@example(signed_zeros(5, [0.0] * 10, [True, False] * 10), 4, False)
@example(signed_zeros(5, [0.0, 1.0] * 5, [False, True, True] * 6 + [False, True]), 4, True)
def test_rows_sorted_by_birth_then_vertices_with_signed_zero_ties(entries, max_dim, stop):
    """In every dimension the births never decrease, and rows of equal
    birth, -0.0 and 0.0 counted equal, are in lexicographic order of
    their vertices; the facet rows still equal the dict lookup."""
    f = build_filtration(DistanceMatrix(entries=entries), max_dim=max_dim,
                         stop_when_connected=stop)
    assert_filtration_order(f)
    assert_index_rows_equal(f, facets_by_lookup(f))


def test_incremental_matches_rebuild_from_scratch():
    rng = np.random.default_rng(17)
    pts = random_points(rng, 8)
    m = build_distance_matrix(pts, "taxicab")
    f = build_filtration(m, max_dim=3)
    final = flag_complex_brute(m, f.thresholds[-1], 3)
    assert set(births(f)) == final

