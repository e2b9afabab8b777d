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
