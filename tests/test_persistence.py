import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points
from oracles import (
    barcode_csv_lines_loop,
    barcode_of,
    bars_alive,
    betti_numbers,
    bottleneck_distance,
    boundary_pairs,
    coboundaries_by_search,
    facets_by_lookup,
    flag_complex_brute,
    in_dim,
    mst_edge_lengths,
    simplex_birth_brute,
)
from ripsbars import cli, dice, persistence
from ripsbars.cloud import write_points_csv
from ripsbars.fileio import ParseError
from ripsbars.filtration import build_filtration
from ripsbars.metrics import PLANAR_METRICS, DistanceMatrix, build_distance_matrix
from ripsbars.persistence import (
    BARCODE_HEADER,
    Bar,
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
    h1 = in_dim(raw, 1)
    assert len(h1) == 1
    assert h1[0].birth == 1.0
    assert h1[0].death == pytest.approx(math.sqrt(2))
    norm = barcode(f, normalize=True)
    nh1 = in_dim(norm, 1)
    assert nh1[0].birth == pytest.approx(1 / math.sqrt(2))
    assert nh1[0].death == 1.0
    # two simultaneous-arrival pairs at the diagonal threshold
    assert len(norm.zero_length) == 2
    assert all(b.dim == 1 for b in norm.zero_length)


def test_triangle_cycle_filled_instantly():
    m = matrix_from([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    bc = barcode(build_filtration(m, max_dim=2), normalize=False)
    assert in_dim(bc, 1) == ()
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


def assert_facets_equal_lookup(f):
    """``f`` stores the dimensions up to its cap or up to its first empty
    one, whichever comes first; ``f.facets`` equals a dict lookup of every
    facet by its vertices, and the coboundaries transposed from it equal the
    search of each row less one vertex among the rows below."""
    want = facets_by_lookup(f)
    top = len(f.vertices) - 1
    assert len(f.births) == len(f.facets) == len(want) == top + 1 <= f.max_dim + 1
    assert all(len(rows) for rows in f.vertices[:top])
    assert top == f.max_dim or not len(f.vertices[top])
    for got, expected in zip(f.facets, want):
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, expected, strict=True)
    for k in range(1, top):
        got = persistence.coboundaries(f.facets[k + 1], len(f.vertices[k]))
        expected = coboundaries_by_search(f.vertices[k], f.vertices[k + 1])
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b, strict=True)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=14),
    st.sampled_from(sorted(PLANAR_METRICS)),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
    st.booleans(),
)
def test_facets_equal_lookup(seed, n, metric, max_dim, stop, grid):
    """Facet rows and coboundaries of random clouds and of clouds snapped to
    a 4 × 4 grid, whose points repeat and whose distances tie."""
    pts = random_points(np.random.default_rng(seed), n)
    if grid:
        pts = np.floor(pts * 4)
    f = build_filtration(build_distance_matrix(pts, metric), max_dim=max_dim,
                         stop_when_connected=stop)
    assert_facets_equal_lookup(f)


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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(sorted(PLANAR_METRICS)),
    st.booleans(),
    st.booleans(),
)
def test_caps_past_the_points_give_the_same_bars(seed, n, metric, stop, grid):
    """No flag complex on n points has an n-simplex, so every cap from
    n − 1 up gives the bars of the boundary reduction, and the same bars."""
    pts = random_points(np.random.default_rng(seed), n)
    if grid:
        pts = np.floor(pts * 4)
    m = build_distance_matrix(pts, metric)
    columns = []
    for cap in range(n - 1, n + 4):
        f = build_filtration(m, max_dim=cap, stop_when_connected=stop)
        assert_facets_equal_lookup(f)
        bc = barcode(f, normalize=False)
        assert bc == boundary_barcode(f)
        columns.append((bc.dim, bc.birth, bc.death, bc.open))
    for other in columns[1:]:
        for a, b in zip(columns[0], other):
            np.testing.assert_array_equal(a, b, strict=True)


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
        assert_facets_equal_lookup(f)
        assert barcode(f, normalize=False) == boundary_barcode(f)


def test_deep_simplices_on_many_points_equal_boundary_reduction():
    """A 489-point unit path with an 11-point tight cluster beside its last
    point, stopped at connectivity with cap 10: the 9-simplices, whose
    cofaces pair them, have vertices up to 499, where C(499, 10) > 2**63,
    so facet rows must not rest on int64 simplex indices in the
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
    assert_facets_equal_lookup(f)
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
    reduction; the dimensions stored end at the cap or at the first one
    with no clique, whichever comes first."""
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
    first_empty = max(map(len, previous))
    assert len(f.vertices) == len(f.births) == len(f.facets) == min(max_dim, first_empty) + 1
    for k, (rows, births, facets) in enumerate(zip(f.vertices, f.births, f.facets)):
        assert rows.shape == (len(births), k + 1)
        assert facets.shape == (len(births), k + 1 if k else 0)
        assert len(births) == sum(len(v) == k + 1 for v in previous)
    assert barcode(f, normalize=False) == boundary_barcode(f)


def test_pipeline_builds_no_simplex_records(square_matrix):
    """The records view is derived on access only: a barcode never builds it."""
    f = build_filtration(square_matrix, max_dim=2)
    barcode(f)
    assert "simplices" not in vars(f) and "spans" not in vars(f)
    assert len(f.simplices) == 4 + 6 + 4


def test_pipeline_builds_no_bar_records(tmp_path, monkeypatch, square_points):
    """The bar records views are derived on access only: a persist, compare
    and stats chain (SVGs included) never builds them."""
    made = []

    def keep(fn):
        def wrapper(*args, **kwargs):
            made.append(fn(*args, **kwargs))
            return made[-1]
        return wrapper

    monkeypatch.setattr(persistence, "extract_pairs", keep(persistence.extract_pairs))
    monkeypatch.setattr(persistence, "read_barcode_csv", keep(persistence.read_barcode_csv))
    write_points_csv(str(tmp_path / "points.csv"), square_points)
    out = str(tmp_path / "out")
    chain = [
        ["persist", "--input", str(tmp_path / "points.csv"), "--out", out, "--svg"],
        ["compare", "--input", str(tmp_path / "points.csv"), "--out", out, "--svg"],
        ["stats", *(f"{out}/barcode_{m}.csv" for m in ("euclidean", "taxicab", "supremum")),
         "--out", out],
    ]
    assert all(cli.main(argv) == 0 for argv in chain)
    assert len(made) == 1 + 3 + 3
    assert not any("bars" in vars(bc) or "zero_length" in vars(bc) for bc in made)
    assert len(made[0].bars) + len(made[0].zero_length) == len(made[0].dim)


def test_barcode_equality_compares_every_field(square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    bc = barcode(f)
    assert bc == barcode(f)
    death = bc.death.copy()
    death[0] = np.nextafter(death[0], 0.0)
    assert bc != dataclasses.replace(bc, death=death)
    assert bc != dataclasses.replace(bc, open=~bc.open)
    k = np.flatnonzero(~bc.open[: bc.n_bars])[0]
    death = bc.death.copy()
    death[k] = bc.birth[k]
    shorter = dataclasses.replace(bc, death=death)
    assert len(shorter.zero_length) == len(bc.zero_length) + 1
    assert bc != shorter
    assert bc != dataclasses.replace(bc, span_end=0.5)
    assert bc != barcode(f, metric="taxicab")


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
        assert bottleneck_distance(in_dim(b1, dim), in_dim(b2, dim)) <= bound


# ---------------------------------------------------------------- barcode CSV

def test_barcode_csv_round_trip(tmp_path, square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    bc = barcode(f, normalize=True, metric="euclidean")
    path = tmp_path / "barcode.csv"
    write_barcode_csv(str(path), bc, config={"command": "persist"})
    back = read_barcode_csv(str(path))
    assert back == bc
    assert back.bars == bc.bars
    assert back.zero_length == bc.zero_length
    assert back.metric == "euclidean"
    assert back.max_dim == 2
    assert back.n_points == 4
    assert back.normalized is True
    assert back.span_end == bc.span_end


UNIT_POOL = (0.0, -0.0, 0.1 + 0.2, 0.3, 5e-324, 1 / 3, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.one_of(st.sampled_from(UNIT_POOL), st.floats(0.0, 1.0)),
            st.one_of(st.sampled_from(UNIT_POOL), st.floats(0.0, 1.0)),
            st.sampled_from(("closed", "open", "zero")),
        ),
        max_size=40,
    ),
    st.booleans(),
    st.sampled_from((1.0, 0.3, 7.5)),
)
def test_barcode_csv_round_trip_of_any_rows(tmp_path_factory, rows, normalized, span_end):
    """Rows in any order, repeated values, open and closed bars and
    birth = death rows mixed in, raw or normalized: the constructor orders
    them the same whatever their order, and the file reads back equal."""
    end = 1.0 if normalized else span_end
    bars = [
        Bar(d, a * end, end, True) if kind == "open"
        else Bar(d, a * end, a * end) if kind == "zero"
        else Bar(d, min(a, b) * end, max(a, b) * end)
        for d, a, b, kind in rows
    ]
    meta = dict(metric="m", max_dim=4, n_points=5, normalized=normalized, span_end=end)
    bc = barcode_of(bars, **meta)
    assert barcode_of(bars[::-1], **meta) == bc
    path = tmp_path_factory.mktemp("csv") / "barcode.csv"
    write_barcode_csv(str(path), bc)
    assert read_barcode_csv(str(path)) == bc


def test_barcode_csv_17_digit_round_trip(tmp_path):
    # An irrational birth must survive the decimal round trip bit for bit.
    bc = barcode_of(
        (Bar(dim=1, birth=1 / math.sqrt(2), death=1.0, open=False),),
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


def assert_csv_lines_equal_loop(path, bc):
    """The file ``write_barcode_csv`` wrote is its header plus one
    ``f"{dim},{fmt(birth)},{fmt(death)},{int(open)}"`` line per bar record."""
    lines = path.read_text().splitlines()
    head = lines[: lines.index(BARCODE_HEADER) + 1]
    assert path.read_text() == "\n".join(head + barcode_csv_lines_loop(bc)) + "\n"


# Repeated values, and values whose 17 digits are easy to get wrong.
VALUE_POOL = (0.0, -0.0, 0.1 + 0.2, 0.3, 5e-324, 1 / 3, 2.0**-1074 * 3, 1.0, 1e300)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.one_of(st.sampled_from(VALUE_POOL), st.floats(0.0, 1e6)),
            st.one_of(st.sampled_from(VALUE_POOL), st.floats(0.0, 1e6)),
            st.booleans(),
        ),
        max_size=40,
    ),
    st.integers(min_value=0, max_value=40),
    st.booleans(),
)
def test_barcode_csv_lines_equal_per_bar_loop(tmp_path_factory, rows, zeros, normalized):
    """Bars in any order, repeated or all distinct, open or closed, then
    zero-length pairs: each line equals the per-record reference."""
    bars = [Bar(d, min(a, b), max(a, b), o) for d, a, b, o in rows[zeros:]]
    zero = [Bar(d, a, a) for d, a, _, _ in rows[:zeros]]
    bc = barcode_of(bars, zero, metric="m", max_dim=4, n_points=5,
                    normalized=normalized, span_end=1.0)
    path = tmp_path_factory.mktemp("csv") / "barcode.csv"
    write_barcode_csv(str(path), bc)
    assert_csv_lines_equal_loop(path, bc)


def test_barcode_csv_line_changes_with_any_one_field(tmp_path):
    """Each bar differs from the one before it in one field only: dim,
    birth, death, open, or the sign of a zero."""
    bars = [
        Bar(1, 0.25, 0.5), Bar(1, 0.25, 0.5), Bar(2, 0.25, 0.5), Bar(2, 0.125, 0.5),
        Bar(2, 0.125, 0.75), Bar(2, 0.125, 0.75, True), Bar(2, 0.0, 0.75, True),
        Bar(2, -0.0, 0.75, True),
    ]
    bc = barcode_of(bars, [Bar(2, 0.75, 0.75)] * 2, metric="m", max_dim=2,
                    n_points=5, normalized=True, span_end=1.0)
    write_barcode_csv(str(tmp_path / "barcode.csv"), bc)
    assert_csv_lines_equal_loop(tmp_path / "barcode.csv", bc)


@pytest.mark.parametrize("normalize", [False, True])
def test_pipeline_barcode_csv_lines_equal_per_bar_loop(tmp_path, normalize):
    """Pipeline barcodes, raw and normalized: all-distinct cloud values, the
    ten strict dice's few repeated values, and an empty barcode."""
    rng = np.random.default_rng(3)
    filtrations = [
        build_filtration(build_distance_matrix(random_points(rng, 12), metric), max_dim=3)
        for metric in sorted(PLANAR_METRICS)
    ] + [build_filtration(m, max_dim=9) for m in _dice_matrices("strict")]
    for k, f in enumerate(filtrations):
        bc = barcode(f, normalize=normalize)
        assert len(bc.zero_length) > 0
        write_barcode_csv(str(tmp_path / f"{k}.csv"), bc)
        assert_csv_lines_equal_loop(tmp_path / f"{k}.csv", bc)
    empty = barcode_of((), metric="", max_dim=0, n_points=0, normalized=normalize, span_end=0.0)
    write_barcode_csv(str(tmp_path / "empty.csv"), empty)
    assert (tmp_path / "empty.csv").read_text().endswith(BARCODE_HEADER + "\n")
    assert_csv_lines_equal_loop(tmp_path / "empty.csv", empty)


META = (
    '# barcode-meta {"max_dim": 2, "metric": "m", "n_points": 4, '
    '"normalized": true, "span_end": 1.0}\n'
)


def test_barcode_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(META + "dim,birth,death,open\n1,0.5\n")
    with pytest.raises(Exception, match="fields"):
        read_barcode_csv(str(path))


def test_barcode_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(META + "1,0.5,0.7,0\n")
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
