import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points
from oracles import (
    bars_alive,
    betti_numbers,
    bottleneck_distance,
    boundary_pairs,
    flag_complex_brute,
    mst_edge_lengths,
    simplex_birth_brute,
)
from ripsbars import dice
from ripsbars.fileio import ParseError
from ripsbars.filtration import build_filtration
from ripsbars.metrics import PLANAR_METRICS, DistanceMatrix, build_distance_matrix
from ripsbars.persistence import (
    Bar,
    Barcode,
    SparseBinaryMatrix,
    barcode,
    extract_pairs,
    read_barcode_csv,
    reduce_matrix,
    total_boundary_matrix,
    write_barcode_csv,
)


def matrix_from(entries):
    return DistanceMatrix(entries=np.array(entries, dtype=float))


# ------------------------------------------------------------ boundary matrix

def test_boundary_single_vertex():
    f = build_filtration(matrix_from([[0]]), max_dim=2)
    M = total_boundary_matrix(f)
    assert M.columns == [[]]


def test_boundary_one_edge():
    f = build_filtration(matrix_from([[0, 1], [1, 0]]), max_dim=2)
    M = total_boundary_matrix(f)
    assert M.columns == [[], [], [0, 1]]


def test_boundary_filled_triangle():
    pts = [(0, 0), (1, 0), (0.5, 0.5)]
    f = build_filtration(build_distance_matrix(pts, "euclidean"), max_dim=2)
    M = total_boundary_matrix(f)
    dims = [s.dim for s in f.simplices]
    triangle_cols = [c for c, d in zip(M.columns, dims) if d == 2]
    assert len(triangle_cols) == 1
    (col,) = triangle_cols
    assert len(col) == 3
    assert all(dims[r] == 1 for r in col)


# ----------------------------------------------------------------- reduction

def test_reduce_leaves_reduced_matrix_unchanged():
    M = SparseBinaryMatrix(columns=[[], [], [0, 1]])
    R, _ = reduce_matrix(M)
    assert R.columns == M.columns


def test_reduce_identical_columns_cancel():
    # Two parallel edges: the second column reduces to zero.
    M = SparseBinaryMatrix(columns=[[], [], [0, 1], [0, 1]])
    R, _ = reduce_matrix(M)
    assert R.columns[2] == [0, 1]
    assert R.columns[3] == []


def test_reduce_triangle_boundary_births_cycle():
    # Three edges on three vertices: the third edge column becomes zero.
    M = SparseBinaryMatrix(columns=[[], [], [], [0, 1], [1, 2], [0, 2]])
    R, _ = reduce_matrix(M)
    assert R.columns[3] == [0, 1]
    assert R.columns[4] == [1, 2]
    assert R.columns[5] == []


def _xor(a, b):
    return sorted(set(a) ^ set(b))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reduction_soundness_random(seed):
    """Distinct lowest ones, and R equals M·V replayed from the op log,
    where every recorded addition flows from an earlier column."""
    rng = np.random.default_rng(seed)
    pts = random_points(rng, int(rng.integers(3, 9)))
    m = build_distance_matrix(pts, "supremum")
    f = build_filtration(m, max_dim=2)
    M = total_boundary_matrix(f)
    R, ops = reduce_matrix(M, record=True)
    lows = [col[-1] for col in R.columns if col]
    assert len(lows) == len(set(lows))
    for src, dst in ops:
        assert src < dst  # V is upper triangular with unit diagonal
    replay = [list(c) for c in M.columns]
    for src, dst in ops:
        replay[dst] = _xor(replay[dst], replay[src])
    assert replay == R.columns


# ------------------------------------------------------------- extract_pairs

def test_two_points_barcode():
    f = build_filtration(matrix_from([[0, 1], [1, 0]]), max_dim=2)
    bc = barcode(f, normalize=False)
    assert bc.bars == (
        Bar(dim=0, birth=0.0, death=1.0, open=False),
        Bar(dim=0, birth=0.0, death=1.0, open=True),
    )


def test_square_barcode_raw_and_normalized(square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    raw = barcode(f, normalize=False)
    h1 = raw.in_dim(1)
    assert len(h1) == 1
    assert h1[0].birth == 1.0
    assert h1[0].death == pytest.approx(math.sqrt(2))
    norm = barcode(f, normalize=True)
    nh1 = norm.in_dim(1)
    assert nh1[0].birth == pytest.approx(1 / math.sqrt(2))
    assert nh1[0].death == 1.0
    # two simultaneous-arrival pairs at the diagonal threshold
    assert len(norm.zero_length) == 2
    assert all(b.dim == 1 for b in norm.zero_length)


def test_triangle_cycle_filled_instantly():
    m = matrix_from([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    bc = barcode(build_filtration(m, max_dim=2), normalize=False)
    assert bc.in_dim(1) == ()
    assert len(bc.zero_length) == 1


def test_open_bars_normalized_death_is_one():
    pts = [(0, 0), (1, 0), (3, 0)]
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=2, stop_when_connected=True)
    bc = barcode(f, normalize=True)
    opens = [b for b in bc.bars if b.open]
    assert len(opens) == 1
    assert opens[0] == Bar(dim=0, birth=0.0, death=1.0, open=True)
    # raw scale: the open bar ends at the last processed threshold
    raw = barcode(f, normalize=False)
    raw_open = [b for b in raw.bars if b.open]
    assert raw_open[0].death == 2.0
    assert raw.span_end == 2.0


def test_normalize_requires_positive_distance():
    f = build_filtration(matrix_from([[0]]), max_dim=1)
    with pytest.raises(ValueError, match="normalize"):
        barcode(f, normalize=True)


def test_exactly_one_open_h0_iff_connected():
    rng = np.random.default_rng(31)
    pts = random_points(rng, 9)
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=2)
    bc = barcode(f, normalize=False)
    h0_open = [b for b in bc.bars if b.dim == 0 and b.open]
    assert betti_numbers(f, f.span_end)[0] == 1
    assert len(h0_open) == 1


def test_max_dim_zero_stop_keeps_every_h0_bar_open():
    """The stop follows the neighborhood graph: with no edge simplices kept,
    every point still has its own open H0 bar."""
    pts = random_points(np.random.default_rng(31), 9)
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=0, stop_when_connected=True)
    bc = barcode(f, normalize=False)
    assert [(b.dim, b.open) for b in bc.bars] == [(0, True)] * 9


def test_pairing_partition():
    """Every simplex is exactly one of: open-bar birth, closed-pair birth,
    or closed-pair killer."""
    rng = np.random.default_rng(77)
    pts = random_points(rng, 8)
    m = build_distance_matrix(pts, "taxicab")
    f = build_filtration(m, max_dim=3)
    M = total_boundary_matrix(f)
    R, _ = reduce_matrix(M)
    births = sum(1 for c in R.columns if not c)
    killers = sum(1 for c in R.columns if c)
    assert births + killers == len(f.simplices)
    bc = extract_pairs(boundary_pairs(R, f), f, normalize=False)
    assert len(bc.bars) + len(bc.zero_length) == births
    open_count = sum(1 for b in bc.bars if b.open)
    closed_count = len(bc.bars) - open_count + len(bc.zero_length)
    assert closed_count == killers


# ------------------------------------ coboundary pairs against the boundary

def boundary_barcode(f):
    R, _ = reduce_matrix(total_boundary_matrix(f))
    return extract_pairs(boundary_pairs(R, f), f, normalize=False)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=14),
    st.sampled_from(sorted(PLANAR_METRICS)),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
)
def test_cohomology_pairs_equal_boundary_reduction(seed, n, metric, max_dim, stop, grid):
    """Union-find plus coboundary reduction with clearing gives the barcode
    of the boundary reduction, zero-length pairs included.  Points snapped
    to a 4 × 4 grid repeat and tie their distances."""
    pts = random_points(np.random.default_rng(seed), n)
    if grid:
        pts = np.floor(pts * 4)
    m = build_distance_matrix(pts, metric)
    f = build_filtration(m, max_dim=max_dim, stop_when_connected=stop)
    assert barcode(f, normalize=False) == boundary_barcode(f)


def _dice_matrices(convention):
    g = dice.build_beating_graph(dice.enumerate_dice(6, 6, 21), convention)
    sub = dice.induced_subgraph(g, dice.non_transitive_subset(g))
    return [
        dice.similarity_distance_matrix(sub),
        dice.euclidean_dice_distance_matrix(sub.nodes),
        dice.foliation_symmetry_distance_matrix(sub.nodes, "literal"),
    ]


@pytest.mark.parametrize(
    "convention, max_dim, stop",
    [("strict", 9, False), ("strict", 9, True), ("majority", 4, True)],
)
def test_cohomology_pairs_equal_boundary_reduction_on_dice(convention, max_dim, stop):
    """The ten strict dice at the CLI's cap and the 31 majority dice as the
    deep dice benchmark runs them, under all three dice distances."""
    for m in _dice_matrices(convention):
        f = build_filtration(m, max_dim=max_dim, stop_when_connected=stop)
        assert barcode(f, normalize=False) == boundary_barcode(f)


def test_deep_simplices_on_many_points_equal_boundary_reduction():
    """A 489-point unit path with an 11-point tight cluster beside its last
    point, stopped at connectivity with cap 10: the 9-simplices, whose
    cofaces pair them, have vertices up to 499, where C(499, 10) > 2**63,
    so facet lookups must not rest on int64 simplex indices in the
    combinatorial number system."""
    rng = np.random.default_rng(5)
    path = np.column_stack((np.arange(489.0), np.zeros(489)))
    cluster = np.array([488.5, 0.0]) + rng.uniform(-0.01, 0.01, size=(11, 2))
    m = build_distance_matrix(np.vstack((path, cluster)), "euclidean")
    f = build_filtration(m, max_dim=10, stop_when_connected=True)
    assert math.comb(499, 10) > 2**63
    assert f.n_points == 500 and f.stopped_early
    # The cluster and point 488 form the only 12-clique.
    assert [len(f.vertices[k]) for k in (9, 10)] == [math.comb(12, 10), math.comb(12, 11)]
    assert barcode(f, normalize=False) == boundary_barcode(f)


#: name → (distance matrix, cap)
DEGENERATE = {
    "one-point": ([[0]], 2),
    "two-points": ([[0, 1], [1, 0]], 2),
    "all-zero": (np.zeros((4, 4)), 3),
    "cap-above-n": ([[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]], 9),
}


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_shapes_match_references(name, stop):
    """Thresholds, spans, simplices and the barcode of tiny, all-zero and
    over-capped inputs against brute-force cliques and the boundary
    reduction; a dimension with no simplex is a zero-row array."""
    entries, max_dim = DEGENERATE[name]
    m = matrix_from(entries)
    f = build_filtration(m, max_dim=max_dim, stop_when_connected=stop)
    distinct = sorted({float(x) for x in m.entries[np.triu_indices(m.n, 1)]})
    cut = max(mst_edge_lengths(m), default=0.0) if stop else math.inf
    assert f.thresholds == [t for t in distinct if t <= cut]
    previous = {(v,) for v in range(m.n)}
    assert f.spans[0] == (0.0, 0, m.n)
    for t, span in zip(f.thresholds, f.spans[1:]):
        current = flag_complex_brute(m, t, max_dim)
        born = {s.vertices for s in f.simplices[span.start:span.end]}
        assert span.threshold == t and born == current - previous
        previous = current
    assert {s.vertices for s in f.simplices} == previous
    assert [span.start for span in f.spans[1:]] == [span.end for span in f.spans[:-1]]
    assert f.spans[-1].end == len(f.simplices)
    assert all(s.birth == simplex_birth_brute(m, s.vertices) for s in f.simplices)
    assert len(f.vertices) == len(f.births) == max_dim + 1
    for k, (rows, births) in enumerate(zip(f.vertices, f.births)):
        assert rows.shape == (len(births), k + 1)
        assert len(births) == sum(len(v) == k + 1 for v in previous)
    assert barcode(f, normalize=False) == boundary_barcode(f)


def test_pipeline_builds_no_simplex_records(square_matrix):
    """The records view is derived on access only: a barcode never builds it."""
    f = build_filtration(square_matrix, max_dim=2)
    barcode(f)
    assert "simplices" not in vars(f) and "spans" not in vars(f)
    assert len(f.simplices) == 4 + 6 + 4


# ------------------------------------------------------------- betti numbers

def test_betti_isolated_vertices():
    m = matrix_from([[0, 9, 9], [9, 0, 9], [9, 9, 0]])
    f = build_filtration(m, max_dim=2)
    assert betti_numbers(f, 1.0) == [3, 0, 0]


def test_betti_square(square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    assert betti_numbers(f, 1.0) == [1, 1, 0]
    assert betti_numbers(f, math.sqrt(2)) == [1, 0, 1]


def test_betti_full_tetrahedron_contractible():
    pts = [(0, 0), (0.1, 0), (0, 0.1), (0.1, 0.1)]
    f = build_filtration(build_distance_matrix(pts, "euclidean"), max_dim=3)
    assert betti_numbers(f, 1.0) == [1, 0, 0, 0]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_live_bars_equal_betti_numbers(seed):
    """Bars alive at each threshold (open bars included) match the Gaussian-
    elimination oracle dimension by dimension."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    max_dim = int(rng.integers(1, 4))
    pts = random_points(rng, n)
    if n >= 4 and rng.random() < 0.3:
        pts[-1] = pts[0]  # duplicate point exercises the ε = 0 threshold
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=max_dim)
    bc = barcode(f, normalize=False)
    for eps in f.thresholds:
        alive = bars_alive(bc.bars, eps)
        betti = betti_numbers(f, eps)
        for k in range(max_dim + 1):
            assert alive.get(k, 0) == betti[k]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_euler_characteristic_conservation(seed):
    rng = np.random.default_rng(seed)
    pts = random_points(rng, int(rng.integers(3, 9)))
    m = build_distance_matrix(pts, "euclidean")
    f = build_filtration(m, max_dim=3)
    for eps in f.thresholds:
        counts = {}
        for s in f.simplices:
            if s.birth <= eps:
                counts[s.dim] = counts.get(s.dim, 0) + 1
        chi_simplices = sum((-1) ** d * c for d, c in counts.items())
        chi_betti = sum((-1) ** k * b for k, b in enumerate(betti_numbers(f, eps)))
        assert chi_simplices == chi_betti


# ------------------------------------------------------------------ stability

def test_bottleneck_oracle_examples():
    a = Bar(dim=1, birth=0.2, death=0.6)
    assert bottleneck_distance([a], [a]) == 0.0
    assert bottleneck_distance([a], []) == pytest.approx(0.2)  # to the diagonal
    moved = Bar(dim=1, birth=0.25, death=0.5)
    assert bottleneck_distance([a], [moved]) == pytest.approx(0.1)
    tiny = Bar(dim=1, birth=0.3, death=0.32)
    assert bottleneck_distance([a, tiny], [moved]) == pytest.approx(0.1)
    opened = Bar(dim=0, birth=0.0, death=1.0, open=True)
    assert bottleneck_distance([opened], [Bar(0, 0.3, 2.0, open=True)]) == 0.3
    assert bottleneck_distance([opened], []) == math.inf


#: (metric, other): the same points under another metric, or a perturbed
#: copy of the points under the same metric.
COMPARED = [("euclidean", "taxicab"), ("euclidean", "supremum")] + [
    (metric, "perturbed") for metric in ("euclidean", "taxicab", "supremum")
]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=3, max_value=8),
    st.sampled_from(COMPARED),
)
def test_stability_bottleneck_within_sup_distance(seed, n, compared):
    """Full filtrations of one point set under two metrics: in H0 and H1
    the bottleneck distance of the raw barcodes is at most ‖d1 − d2‖∞
    (Chazal, de Silva & Oudot 2014)."""
    metric, other = compared
    rng = np.random.default_rng(seed)
    pts = random_points(rng, n)
    m1 = build_distance_matrix(pts, metric)
    if other == "perturbed":
        m2 = build_distance_matrix(pts + rng.normal(scale=0.05, size=pts.shape), metric)
    else:
        m2 = build_distance_matrix(pts, other)
    bound = np.abs(m1.entries - m2.entries).max() + 1e-12
    b1 = barcode(build_filtration(m1, max_dim=2), normalize=False)
    b2 = barcode(build_filtration(m2, max_dim=2), normalize=False)
    for dim in (0, 1):
        assert bottleneck_distance(b1.in_dim(dim), b2.in_dim(dim)) <= bound


# ---------------------------------------------------------------- barcode CSV

def test_barcode_csv_round_trip(tmp_path, square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    bc = barcode(f, normalize=True, metric="euclidean")
    path = tmp_path / "barcode.csv"
    write_barcode_csv(str(path), bc, config={"command": "persist"})
    back = read_barcode_csv(str(path))
    assert back.bars == bc.bars
    assert back.zero_length == bc.zero_length
    assert back.metric == "euclidean"
    assert back.max_dim == 2
    assert back.n_points == 4
    assert back.normalized is True
    assert back.span_end == bc.span_end


def test_barcode_csv_17_digit_round_trip(tmp_path):
    # An irrational birth must survive the decimal round trip bit for bit.
    bc = Barcode(
        bars=(Bar(dim=1, birth=1 / math.sqrt(2), death=1.0, open=False),),
        zero_length=(),
        metric="euclidean",
        max_dim=2,
        n_points=4,
        normalized=True,
        span_end=1.0,
    )
    path = tmp_path / "barcode.csv"
    write_barcode_csv(str(path), bc)
    back = read_barcode_csv(str(path))
    assert back.bars[0].birth == 1 / math.sqrt(2)


def test_barcode_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dim,birth,death,open\n1,0.5\n")
    with pytest.raises(Exception, match="fields"):
        read_barcode_csv(str(path))


def test_barcode_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0.5,0.7,0\n")
    with pytest.raises(Exception, match="header"):
        read_barcode_csv(str(path))


def test_barcode_csv_bad_meta_reports_its_line(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text(
        "# ripsbars-version 0.1.0\n"
        '# ripsbars-config {"command":"persist"}\n'
        '# barcode-meta {"metric": \n'
        "dim,birth,death,open\n"
    )
    with pytest.raises(ParseError, match=r"b\.csv:3: bad barcode-meta JSON"):
        read_barcode_csv(str(path))
