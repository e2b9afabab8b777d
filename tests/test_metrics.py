import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    distance_csv_lines_loop,
    distance_matrix_loop,
    sample_region_loop,
    validate_pseudometric,
)
from ripsbars.cloud import four_hole_disk, read_points_csv, sample_region
from ripsbars.fileio import ParseError, read_lines
from ripsbars.metrics import (
    PLANAR_METRICS,
    DistanceMatrix,
    build_distance_matrix,
    euclidean,
    read_distance_csv,
    supremum,
    taxicab,
    write_distance_csv,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)
#: Integer grid points: many equal distances and coincident points.
grid_points = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def between(fn, a, b) -> float:
    """``fn`` on the single pair (a, b)."""
    return float(fn(np.array([a[0] - b[0]]), np.array([a[1] - b[1]]))[0])


def test_euclidean_values():
    assert between(euclidean, (0, 0), (3, 4)) == 5.0
    assert between(euclidean, (1, 1), (1, 1)) == 0.0
    assert between(euclidean, (0, 0), (1, 1)) == pytest.approx(math.sqrt(2))


def hypot_bits(dx, dy) -> np.ndarray:
    """``math.hypot`` per pair, as the int64 bit patterns of the results."""
    return np.array([math.hypot(a, b) for a, b in zip(dx, dy)]).view(np.int64)


#: Floats where hypot's rounding is delicate: signed zeros, small integers
#: (many equal distances and ties), magnitudes 1e±300, subnormals, and every
#: other float, infinities and NaN included.
hypot_floats = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-8, 8).map(float),
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-2.0**-1022, max_value=2.0**-1022),
    st.floats(),
)
#: Pairs whose smaller coordinate is 1 to 1e-20 times the larger.
ratio_pairs = st.tuples(
    st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=-20.0, max_value=0.0)
).map(lambda t: (t[0], t[0] * 10.0 ** t[1]))


@settings(max_examples=300)
@given(st.lists(st.one_of(st.tuples(hypot_floats, hypot_floats), ratio_pairs), min_size=1))
def test_euclidean_is_math_hypot_bit_for_bit(pairs):
    dx, dy = (np.array(c, dtype=float) for c in zip(*pairs))
    assert np.array_equal(euclidean(dx, dy).view(np.int64), hypot_bits(dx, dy))


@pytest.mark.parametrize(
    "dx, dy",
    [
        (0.0, 5e-324),
        (5e-324, 5e-324),
        (2.0**-1022, 2.0**-1023),
        (3e-320, 4e-320),
        (2.0**-1024, 0.0),  # the smallest entry the numpy sequence takes
        (1e300, 1e300),
        (-3.0, 4.0),
        (-0.0, 0.0),
        (1e308, 1e308),  # overflows to inf, as math.hypot does
        (math.inf, math.nan),
        (math.nan, 1.0),
    ],
)
def test_euclidean_is_math_hypot_at_the_edges(dx, dy):
    """Zeros, subnormals and the tiny range below 2**-1024 (handed to
    math.hypot), huge and non-finite values; a warning would fail the test."""
    got = euclidean(np.array([dx, dy]), np.array([dy, dx]))
    assert np.array_equal(got.view(np.int64), hypot_bits([dx, dy], [dy, dx]))


def test_euclidean_is_math_hypot_per_pair():
    """Pair (7, 10) of the seed-7 50-point cloud, where np.hypot is one ulp
    lower; the pinned barcodes depend on math.hypot's rounding."""
    dx, dy = -0.695171226662213, 0.7131839638245827
    assert euclidean(np.array([dx]), np.array([dy]))[0] == math.hypot(dx, dy)
    assert math.hypot(dx, dy) == 0.9959389542715907
    assert float(np.hypot(dx, dy)) == 0.9959389542715906


def test_taxicab_values():
    assert between(taxicab, (0, 0), (3, 4)) == 7.0
    assert between(taxicab, (2, 5), (2, 5)) == 0.0
    assert between(taxicab, (0, 0), (-1, 1)) == 2.0


def test_supremum_values():
    assert between(supremum, (0, 0), (3, 4)) == 4.0
    assert between(supremum, (7, 7), (7, 7)) == 0.0
    assert between(supremum, (0, 0), (1, 1)) == 1.0


def test_point_rejects_non_finite(tmp_path):
    path = tmp_path / "points.csv"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"x,y\n0.5,0.5\n{bad},0.0\n")
        with pytest.raises(ParseError, match=":3: non-finite"):
            read_points_csv(str(path), read_lines(str(path)))
        with pytest.raises(ValueError, match="non-finite"):
            build_distance_matrix([(0.5, 0.5), (float(bad), 0.0)], "euclidean")
        with pytest.raises(ValueError, match="non-finite"):
            build_distance_matrix([(0.5, 0.5), (0.0, float(bad))], "taxicab")


@pytest.mark.parametrize("name", sorted(PLANAR_METRICS))
def test_build_distance_matrix_refuses_overflowing_span(name):
    """Each span is finite but their sum, the taxicab diameter of the
    bounding box, is not; every metric refuses alike, with no warning."""
    with pytest.raises(
        ValueError, match=r"^coordinate span x 0\.\.1e\+308, y -1e\+308\.\.0 is too wide"
    ):
        build_distance_matrix([(0.0, 0.0), (1e308, -1e308)], name)


@given(points, points)
def test_norm_equivalence(a, b):
    """sup ≤ euclidean ≤ taxicab ≤ 2·sup for every pair of plane points."""
    s, e, t = between(supremum, a, b), between(euclidean, a, b), between(taxicab, a, b)
    tol = 1e-9 * max(1.0, t)
    assert s <= e + tol
    assert e <= t + tol
    assert t <= 2 * s + tol


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(points, min_size=1, max_size=12),
        st.lists(grid_points, min_size=1, max_size=12),
    ),
    st.sampled_from(sorted(PLANAR_METRICS)),
)
def test_array_metrics_match_per_pair_loop(pts, name):
    m = build_distance_matrix(pts, name)
    assert np.array_equal(m.entries, distance_matrix_loop(pts, name))


def test_array_metrics_match_per_pair_loop_on_paper_cloud():
    """The seed-7 clouds have pairs where np.hypot would round differently,
    so this pins the euclidean rounding on real inputs; 300 points take
    several blocks of rows."""
    for n in (50, 300):
        pts = sample_region(four_hole_disk(), n, seed=7)
        assert np.array_equal(pts, sample_region_loop(four_hole_disk(), n, 7))
        for name in PLANAR_METRICS:
            assert np.array_equal(
                build_distance_matrix(pts, name).entries, distance_matrix_loop(pts, name)
            )


def test_build_distance_matrix_examples():
    m = build_distance_matrix([(0, 0), (3, 4)], "euclidean")
    assert m.entries.tolist() == [[0, 5], [5, 0]]

    single = build_distance_matrix([(0, 0)], "taxicab")
    assert single.entries.tolist() == [[0]]

    tri = build_distance_matrix([(0, 0), (1, 0), (0, 1)], "taxicab")
    assert tri.entries.tolist() == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]


def test_build_distance_matrix_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        build_distance_matrix([(0, 0)], "hamming")


def test_build_distance_matrix_rejects_empty():
    with pytest.raises(ValueError, match="n >= 1"):
        build_distance_matrix([], "euclidean")
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        build_distance_matrix([(0.0, 1.0, 2.0)], "euclidean")


@given(st.lists(points, min_size=2, max_size=8), st.sampled_from(sorted(PLANAR_METRICS)))
def test_built_matrices_are_pseudometrics(pts, name):
    m = build_distance_matrix(pts, name)
    assert validate_pseudometric(m, tol=1e-9).ok


def test_validate_clean_matrix():
    m = DistanceMatrix(entries=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert validate_pseudometric(m).ok


def test_validate_reports_negativity():
    """The oracle takes the bare array, which no ``DistanceMatrix`` holds."""
    report = validate_pseudometric(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert any(v.axiom == "nonnegativity" and v.witness == (0, 1) for v in report.violations)


def test_validate_reports_triangle_violation():
    m = DistanceMatrix(entries=np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float))
    report = validate_pseudometric(m)
    hits = [v for v in report.violations if v.axiom == "triangle"]
    assert hits and any(set(v.witness) == {0, 1, 2} for v in hits)
    assert "triangle" in report.summary()


def test_validate_reports_asymmetry():
    """The oracle takes the bare array, which no ``DistanceMatrix`` holds."""
    report = validate_pseudometric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert any(v.axiom == "symmetry" for v in report.violations)


def test_validate_accepts_pseudometric_zero():
    """Distance 0 between distinct points is allowed, not a violation."""
    m = DistanceMatrix(entries=np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float))
    assert validate_pseudometric(m).ok


def test_distance_matrix_refuses_asymmetry():
    """Upper entries (0, 1) = 5, (0, 2) = 1, (1, 2) = 9 with a lower entry
    [2, 1] = 1: a stop cut read from whole rows would be 1, not 5, and leave
    the points unconnected, so no such matrix is accepted."""
    entries = np.array([[0, 5, 1], [5, 0, 9], [1, 1, 0]], dtype=float)
    with pytest.raises(ValueError, match="not symmetric"):
        DistanceMatrix(entries=entries)


def test_distance_matrix_refuses_negative_entries_and_nonzero_diagonal():
    """A negative distance gave the normalized bar (0, 0, -0.5), which the
    barcode reader then refused; ``-0.0`` is zero and stays legal."""
    with pytest.raises(ValueError, match="negative"):
        DistanceMatrix(entries=np.array([[0, -1, 2], [-1, 0, 2], [2, 2, 0]], dtype=float))
    with pytest.raises(ValueError, match="diagonal"):
        DistanceMatrix(entries=np.array([[0, 1], [1, 2]], dtype=float))
    m = DistanceMatrix(entries=np.array([[-0.0, 1.0], [1.0, -0.0]]))
    assert m.max_distance() == 1.0
    assert not np.signbit(m.entries).any()


def test_distance_matrix_shape_checks():
    with pytest.raises(ValueError):
        DistanceMatrix(entries=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DistanceMatrix(entries=np.array([[0.0, float("nan")], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(entries=np.zeros((2, 2)), labels=("a",))


def test_distance_csv_round_trip(tmp_path):
    m = DistanceMatrix(
        entries=np.array([[0, 1.25, 2], [1.25, 0, 0.5], [2, 0.5, 0]], dtype=float),
        labels=("a", "b", "c"),
        metric="euclidean",
    )
    path = tmp_path / "dist.csv"
    write_distance_csv(str(path), m, config={"command": "test"})
    back, header = read_distance_csv(str(path), read_lines(str(path)))
    assert np.array_equal(back.entries, m.entries)
    assert back.labels == ("a", "b", "c")
    assert back.metric == "euclidean"
    assert header["config"] == {"command": "test"}


#: Ties, a signed zero, the smallest subnormal, and values whose 17 digits
#: are easy to get wrong.
DISTANCE_POOL = (0.0, -0.0, 5e-324, 1 / 3, 0.1 + 0.2, 0.3, 1.0, 1e300)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_distance_csv_lines_equal_per_entry_loop(tmp_path_factory, n, data):
    """Each matrix line equals the per-entry reference, and the file reads
    back bit for bit what the matrix holds: its entries, each -0.0 held as
    +0.0."""
    upper = data.draw(st.lists(
        st.one_of(st.sampled_from(DISTANCE_POOL), st.floats(0.0, 1e6)),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2,
    ))
    entries = np.zeros((n, n))
    rows, cols = np.triu_indices(n, k=1)
    entries[rows, cols] = entries[cols, rows] = upper
    m = DistanceMatrix(entries)
    path = tmp_path_factory.mktemp("csv") / "dist.csv"
    write_distance_csv(str(path), m)
    lines = read_lines(str(path))
    assert lines[1:] == distance_csv_lines_loop(m)  # below the version line
    back, _ = read_distance_csv(str(path), lines)
    np.testing.assert_array_equal(back.entries.view(np.int64), m.entries.view(np.int64))
    np.testing.assert_array_equal(m.entries.view(np.int64), (entries + 0.0).view(np.int64))


def test_distance_csv_refuses_label_with_comma(tmp_path):
    """The labels line is comma-separated, so "1,2,10" would read back as
    three labels; the writer refuses it and leaves no file."""
    m = DistanceMatrix(entries=np.array([[0, 1.0], [1.0, 0]]), labels=("1,2,10", "123"))
    path = tmp_path / "dist.csv"
    with pytest.raises(ValueError, match="'1,2,10'"):
        write_distance_csv(str(path), m)
    assert not path.exists()


def test_distance_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1\n")
    with pytest.raises(ParseError, match="columns"):
        read_distance_csv(str(path), read_lines(str(path)))


def test_distance_csv_rejects_asymmetric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n2,0\n")
    with pytest.raises(ParseError, match="symmetric"):
        read_distance_csv(str(path), read_lines(str(path)))


def test_distance_csv_rejects_bad_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,x\nx,0\n")
    with pytest.raises(ParseError, match="not a number"):
        read_distance_csv(str(path), read_lines(str(path)))


def test_distance_csv_rejects_negative(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,-1\n-1,0\n")
    with pytest.raises(ParseError, match="negative"):
        read_distance_csv(str(path), read_lines(str(path)))


def test_distance_csv_rejects_nonzero_diagonal(tmp_path):
    """The reader checks before the matrix does, so it names the line."""
    path = tmp_path / "bad.csv"
    path.write_text("1,1\n1,0\n")
    with pytest.raises(ParseError, match="bad.csv:1: matrix diagonal must be zero"):
        read_distance_csv(str(path), read_lines(str(path)))
