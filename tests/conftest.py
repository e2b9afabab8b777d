import numpy as np
import pytest
from hypothesis import strategies as st

from ripsbars.metrics import build_distance_matrix


@pytest.fixture
def square_points():
    """Unit-square corners, counterclockwise from the origin."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def square_matrix(square_points):
    return build_distance_matrix(square_points, "euclidean")


def random_points(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.random((n, 2))


def assert_index_rows_equal(f, facets):
    """``f.facets`` equals ``facets`` in shape and in every value, and each
    index array of the filtration ``f`` has the smallest unsigned dtype
    that holds the largest row it may index: n − 1 for the vertex rows and
    the facet rows of dimensions 0 and 1, m_{k−1} − 1 for those of
    dimension k."""
    point = np.min_scalar_type(f.n_points - 1)
    assert all(rows.dtype == point for rows in f.vertices)
    assert len(f.facets) == len(facets)
    below = [f.n_points] + [len(rows) for rows in f.vertices]
    for got, expected, count in zip(f.facets, facets, below):
        assert got.dtype == np.min_scalar_type(count - 1)
        np.testing.assert_array_equal(got.astype(np.intp), expected.astype(np.intp), strict=True)


def assert_filtration_order(f):
    """In every dimension of the filtration ``f`` the births never
    decrease, and rows of equal birth (-0.0 and 0.0 compare equal) are in
    lexicographic order of their vertices."""
    for rows, born in zip(f.vertices, f.births):
        keys = list(zip(born.tolist(), map(tuple, rows.tolist())))
        assert all(a < b for a, b in zip(keys, keys[1:]))


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def symmetric(n, upper):
    """The (n, n) matrix with zero diagonal and ``upper`` above it, row by row."""
    entries = np.zeros((n, n))
    entries[np.triu_indices(n, k=1)] = upper
    return entries + entries.T


# Integer dice-like matrices (many ties, zero distances, no triangle
# inequality) and clouds whose points all coincide.
dice_like = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2,
).map(lambda upper: symmetric(n, upper)))
coincident = st.tuples(st.integers(1, 7), coords, coords, st.sampled_from(
    ["euclidean", "taxicab", "supremum"],
)).map(lambda t: build_distance_matrix(np.tile(t[1:3], (t[0], 1)), t[3]).entries)
