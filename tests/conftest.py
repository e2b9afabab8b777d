import numpy as np
import pytest

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
