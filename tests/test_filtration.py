import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points
from oracles import edge_order_loop, flag_complex_brute, mst_edge_lengths, simplex_birth_brute
from ripsbars.filtration import build_filtration, sorted_edges
from ripsbars.metrics import DistanceMatrix, build_distance_matrix
from ripsbars.persistence import total_boundary_matrix


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


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
clouds = st.one_of(
    st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
    # integer grid points: many tied distances and coincident points
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=12),
)


@settings(max_examples=60, deadline=None)
@given(clouds, st.sampled_from(["euclidean", "taxicab", "supremum"]))
def test_sorted_edges_match_tuple_sort(pts, metric):
    m = build_distance_matrix(pts, metric)
    i, j, d, starts = sorted_edges(m)
    ref = edge_order_loop(m)
    assert np.array_equal(d, [t[0] for t in ref])
    assert np.array_equal(i, [t[1] for t in ref])
    assert np.array_equal(j, [t[2] for t in ref])
    distinct = sorted({t[0] for t in ref})
    assert np.array_equal(d[starts], distinct)
    assert thresholds(m) == distinct


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


def test_incremental_matches_rebuild_from_scratch():
    rng = np.random.default_rng(17)
    pts = random_points(rng, 8)
    m = build_distance_matrix(pts, "taxicab")
    f = build_filtration(m, max_dim=3)
    final = flag_complex_brute(m, f.thresholds[-1], 3)
    assert set(births(f)) == final

