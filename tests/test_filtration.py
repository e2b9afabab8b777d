import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points
from oracles import edge_order_loop, flag_complex_brute, simplex_birth_brute
from ripsbars.filtration import Filtration, build_filtration, expand_increment, sorted_edges
from ripsbars.metrics import DistanceMatrix, build_distance_matrix


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
    f = Filtration(n_points=3, max_dim=2, max_distance=2.0)
    expand_increment(f, [(0, 1)], 1.0)
    expand_increment(f, [(1, 2)], 1.5)
    assert (0, 1, 2) not in births(f)
    expand_increment(f, [(0, 2)], 2.0)
    assert births(f)[(0, 1, 2)] == 2.0


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


def test_order_soundness_faces_precede_cofaces(square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    for position, s in enumerate(f.simplices):
        assert s.faces == tuple(sorted(s.faces))
        for face_position in s.faces:
            assert face_position < position
            face = f.simplices[face_position]
            assert face.dim == s.dim - 1
            assert face.birth <= s.birth
            assert set(face.vertices) < set(s.vertices)


def test_filtration_sorted_by_birth_dim_vertices(square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    keys = [(s.birth, s.dim, s.vertices) for s in f.simplices]
    assert keys == sorted(keys)


def test_expand_rejects_duplicate_edge():
    f = Filtration(n_points=2, max_dim=2, max_distance=1.0)
    expand_increment(f, [(0, 1)], 1.0)
    with pytest.raises(ValueError, match="already present"):
        expand_increment(f, [(0, 1)], 2.0)


def test_two_points_stopping():
    m = matrix_from([[0, 1], [1, 0]])
    f = build_filtration(m, max_dim=2, stop_when_connected=True)
    births = [(s.dim, s.birth) for s in f.simplices]
    assert births == [(0, 0.0), (0, 0.0), (1, 1.0)]
    assert f.connected_at == 1.0
    assert not f.stopped_early  # nothing remained after ε = 1


def test_collinear_points_stop_at_second_threshold():
    pts = [(0, 0), (1, 0), (3, 0)]
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=2, stop_when_connected=True)
    assert f.thresholds == [1.0, 2.0]
    assert f.connected_at == 2.0
    assert f.stopped_early  # the 0–2 pair at distance 3 was never processed
    assert f.span_end == 2.0


def test_connected_at_recorded_without_stopping():
    pts = [(0, 0), (1, 0), (3, 0)]
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=2, stop_when_connected=False)
    assert f.connected_at == 2.0
    assert f.thresholds == [1.0, 2.0, 3.0]
    assert not f.stopped_early


def test_single_point_trivially_connected():
    f = build_filtration(matrix_from([[0]]), max_dim=2)
    assert f.connected_at == 0.0
    assert len(f) == 1
    assert f.span_end == 0.0


def test_max_dim_zero_keeps_only_vertices():
    m = matrix_from([[0, 1], [1, 0]])
    f = build_filtration(m, max_dim=0)
    assert [s.dim for s in f.simplices] == [0, 0]
    assert f.connected_at == 1.0  # connectivity follows the neighborhood graph


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
    and every simplex is born exactly when its longest edge appears."""
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


def test_incremental_matches_rebuild_from_scratch():
    rng = np.random.default_rng(17)
    pts = random_points(rng, 8)
    m = build_distance_matrix(pts, "taxicab")
    f = build_filtration(m, max_dim=3)
    final = flag_complex_brute(m, f.thresholds[-1], 3)
    assert set(births(f)) == final

