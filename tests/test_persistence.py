import contextlib
import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_filtration_order, assert_index_rows_equal, coincident, dice_like, random_points,
    symmetric,
)
from oracles import (
    apparent_pairs_brute,
    bar_rows,
    barcode_csv_lines_loop,
    barcode_of,
    bars_alive,
    betti_numbers,
    bottleneck_distance,
    boundary_pairs,
    coboundaries_by_argsort,
    coboundaries_by_search,
    dimension_rows,
    facets_by_lookup,
    flag_complex_brute,
    in_dim,
    mst_edge_lengths,
    pair_sets,
    simplex_birth_brute,
)
from ripsbars import cli, dice, filtration, persistence
from ripsbars.cloud import four_hole_disk, sample_region, write_points_csv
from ripsbars.fileio import ParseError
from ripsbars.filtration import build_filtration
from ripsbars.metrics import PLANAR_METRICS, DistanceMatrix, build_distance_matrix
from ripsbars.persistence import (
    BARCODE_HEADER,
    Bar,
    Barcode,
    SparseBinaryMatrix,
    barcode,
    extract_pairs,
    persistence_pairs,
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


@contextlib.contextmanager
def tops_counted_above(rows):
    """Within the block, a top dimension at a cap of 2 or more is counted
    when the dimension below it has more than ``rows`` rows: at 0 every one
    with simplices below it, at ∞ none."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filtration, "COUNT_TOP_ABOVE", rows)
        yield


def assert_facets_equal_lookup(f):
    """``f`` holds the dimensions up to its cap or up to its first empty
    one, whichever comes first, and stores all of them but a top one at a
    cap of 2 or more over more than ``COUNT_TOP_ABOVE`` rows, which it
    counts: it has births and no rows.
    ``f.facets`` equals a dict lookup of every facet by its vertices, each
    index array in the dtype its size gives, and the coboundaries
    transposed from it equal the search of each row less one vertex among
    the rows below, their cofaces in the smallest dtype that holds the rows
    above."""
    want = facets_by_lookup(f)
    top = len(f.births) - 1
    assert len(f.facets) == len(want) == len(f.vertices) and top <= f.max_dim
    counted = len(f.vertices) == top
    assert counted == (top == f.max_dim >= 2
                       and len(f.births[top - 1]) > filtration.COUNT_TOP_ABOVE)
    assert counted or len(f.vertices) == top + 1
    assert all(len(born) for born in f.births[:top])
    assert top == f.max_dim or not len(f.births[top])
    assert_index_rows_equal(f, want)
    for k in range(1, len(f.vertices) - 1):
        ptr, cofaces = persistence.coboundaries(f.facets[k + 1], len(f.vertices[k]))
        want_ptr, want_cofaces = coboundaries_by_search(f.vertices[k], f.vertices[k + 1])
        np.testing.assert_array_equal(ptr, want_ptr, strict=True)
        assert cofaces.dtype == np.min_scalar_type(len(f.vertices[k + 1]) - 1)
        np.testing.assert_array_equal(cofaces.astype(np.intp), want_cofaces, strict=True)


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


@settings(max_examples=120, deadline=None)
@given(st.one_of(dice_like, coincident), st.integers(0, 5), st.booleans())
@example(np.zeros((7, 7)), 5, False)
@example(np.zeros((7, 7)), 5, True)
def test_facets_and_cliques_on_tied_and_repeated_points(entries, max_dim, stop):
    """Tied integer distances and coincident points: the facet rows equal
    the dict lookup, and the simplices born by each threshold kept are the
    brute-force cliques at it."""
    m = DistanceMatrix(entries=entries)
    f = build_filtration(m, max_dim=max_dim, stop_when_connected=stop)
    assert_facets_equal_lookup(f)
    for eps in f.thresholds or [0.0]:
        have = {s.vertices for s in f.simplices if s.birth <= eps}
        assert have == flag_complex_brute(m, eps, max_dim)


def test_majority_dice_rows_and_facets_at_the_deep_cap():
    """The 31 majority dice under foliation-symmetry, stopped at cap 4, as
    the deep dice benchmark builds them: simplices per dimension, the top
    one counted and not stored, facet rows equal to the dict lookup and
    coboundaries equal to the search."""
    m = _dice_matrices("majority")[2]
    assert m.metric == "foliation-symmetry"
    f = build_filtration(m, max_dim=4, stop_when_connected=True)
    assert [len(born) for born in f.births] == [31, 345, 2315, 10715, 36916]
    assert len(f.vertices) == len(f.facets) == 4
    assert_facets_equal_lookup(f)


@pytest.mark.parametrize("n", [256, 257])
def test_vertex_rows_widen_past_256_points(n):
    """Vertex rows, and the edges' facet rows, are 8-bit up to 256 points
    and 16-bit from 257; either way the full 1-skeleton's facet rows equal
    the dict lookup and its bars those of the boundary reduction."""
    pts = random_points(np.random.default_rng(n), n)
    f = build_filtration(build_distance_matrix(pts, "euclidean"), max_dim=1)
    assert len(f.vertices[1]) == n * (n - 1) // 2
    assert f.vertices[1].dtype == f.facets[1].dtype == (np.uint8 if n == 256 else np.uint16)
    assert_facets_equal_lookup(f)
    assert barcode(f, normalize=False) == boundary_barcode(f)


def test_majority_dice_facet_rows_widen_to_32_bits():
    """Foliation-symmetry on the 31 majority dice at cap 7: the 213,232
    6-simplices index 99,092 5-simplices, so their facet rows are 32-bit,
    and every coboundary below is a radix-sorted 16-bit transpose or that
    32-bit one; the 7-simplices are counted.  Facet rows and coboundaries
    equal the lookup and the search, the rows are in filtration order
    through their many tied births, and the pairs equal those of the same
    complex with intp facet rows."""
    f = build_filtration(_dice_matrices("majority")[2], max_dim=7, stop_when_connected=True)
    assert [len(rows) for rows in f.vertices] == [31, 345, 2315, 10715, 36916, 99092, 213232]
    assert len(f.births[7]) == 374669
    assert_filtration_order(f)
    assert [x.dtype for x in f.facets] == [np.uint8] * 2 + [np.uint16] * 4 + [np.uint32]
    assert_facets_equal_lookup(f)
    wide = dataclasses.replace(f, facets=tuple(x.astype(np.intp) for x in f.facets))
    for a, b in zip(persistence_pairs(f), persistence_pairs(wide), strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize(
    "rows, width, m",
    [(2**16 + 1, 3, 2**16 + 1), (5000, 4, 300), (1, 2, 2), (0, 3, 7), (0, 2, 0)],
    ids=["34-bit keys", "22-bit keys", "one row", "zero rows", "nothing"],
)
def test_coboundaries_equal_stable_argsort(rows, width, m):
    """Synthetic facet rows, each of ``width`` distinct entries below
    ``m``, in the dtype the filtration gives them: the packed-key transpose
    equals a stable argsort of the flattened rows, whether its keys need
    more than 32 bits or not, and with zero rows.  The cofaces take the
    smallest dtype that holds the rows."""
    rng = np.random.default_rng(rows + m)
    start = rng.integers(0, max(m, 1), (rows, 1))
    facets = (start + rng.permuted(np.tile(np.arange(width), (rows, 1)), axis=1)) % max(m, 1)
    facets = facets.astype(np.min_scalar_type(max(m, 1) - 1))
    ptr, cofaces = persistence.coboundaries(facets, m)
    want_ptr, want_cofaces = coboundaries_by_argsort(facets, m)
    np.testing.assert_array_equal(ptr, want_ptr, strict=True)
    assert cofaces.dtype == np.min_scalar_type(rows - 1)
    np.testing.assert_array_equal(cofaces.astype(np.intp), want_cofaces, strict=True)


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
    n − 1 up gives the bars of the boundary reduction, and the same bars,
    with every top dimension at the cap counted."""
    pts = random_points(np.random.default_rng(seed), n)
    if grid:
        pts = np.floor(pts * 4)
    m = build_distance_matrix(pts, metric)
    columns = []
    for cap in range(n - 1, n + 4):
        with tops_counted_above(0):
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
        dice.euclidean_dice_distance_matrix(sub.faces),
        dice.foliation_symmetry_distance_matrix(sub.faces, "literal"),
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
    assert [len(f.births[k]) for k in (9, 10)] == [math.comb(12, 10), math.comb(12, 11)]
    assert_facets_equal_lookup(f)
    assert barcode(f, normalize=False) == boundary_barcode(f)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(sorted(PLANAR_METRICS)),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.booleans(),
)
def test_apparent_pairs_are_persistence_pairs(seed, n, metric, max_dim, stop, grid):
    """Every apparent pair the brute-force oracle finds is a pair of the
    boundary reduction.  Points snapped to a 4 × 4 grid repeat and tie
    their distances, so births tie and the vertices break them."""
    pts = random_points(np.random.default_rng(seed), n)
    if grid:
        pts = np.floor(pts * 4)
    f = build_filtration(build_distance_matrix(pts, metric), max_dim=max_dim,
                         stop_when_connected=stop)
    R, _ = reduce_matrix(total_boundary_matrix(f))
    for apparent, pairs in zip(apparent_pairs_brute(f), pair_sets(f, boundary_pairs(R, f))):
        assert apparent <= pairs


def count_reduced_columns(f, pairs):
    """The k-simplices, k from 1 below the top, that the coboundary
    reduction has to reduce: those with a coface that neither killed a class
    in dimension k − 1 (cleared) nor lie in an apparent pair.  ``pairs``
    are the boundary reduction's."""
    apparent = apparent_pairs_brute(f)
    rows = dimension_rows(f)
    count = 0
    for k in range(1, len(rows) - 1):
        row = {v: r for r, v in enumerate(map(tuple, rows[k].tolist()))}
        with_coface = {row[t[:i] + t[i + 1:]]
                       for t in map(tuple, rows[k + 1].tolist()) for i in range(k + 2)}
        cleared = set(pairs[k - 1][1].tolist())
        count += len(with_coface - cleared - {s for s, _ in apparent[k]})
    return count


def _benchmark_filtration(source):
    """The 31 majority dice under foliation-symmetry as the deep dice
    benchmark runs them (cap 4, stopped), or the seed-7 40-point cloud
    under one planar metric as the full-cloud benchmark does (cap 2)."""
    if source == "dice":
        m = _dice_matrices("majority")[2]
        return build_filtration(m, max_dim=4, stop_when_connected=True)
    m = build_distance_matrix(sample_region(four_hole_disk(), 40, seed=7), source)
    return build_filtration(m, max_dim=2)


@pytest.mark.parametrize("source", ["dice", *sorted(PLANAR_METRICS)])
def test_columns_that_are_not_apparent_are_reduced(source):
    """Some uncleared columns of the benchmark complexes are not apparent
    (71 on the dice, 8 to 11 on the cloud), so the pairs match the boundary
    reduction only if those columns are reduced."""
    f = _benchmark_filtration(source)
    R, _ = reduce_matrix(total_boundary_matrix(f))
    pairs = boundary_pairs(R, f)
    assert count_reduced_columns(f, pairs) > 0
    assert pair_sets(f, persistence_pairs(f)) == pair_sets(f, pairs)


#: name → (distance matrix, cap)
DEGENERATE = {
    "one-point": ([[0]], 2),
    "two-points": ([[0, 1], [1, 0]], 2),
    "all-zero": (np.zeros((4, 4)), 3),
    "cap-above-n": ([[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]], 9),
}


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_shapes_match_references(name, stop, monkeypatch):
    """Thresholds, spans, simplices and the barcode of tiny, all-zero and
    over-capped inputs against brute-force cliques and the boundary
    reduction; the dimensions held end at the cap or at the first one with
    no clique, whichever comes first, and a top one at the cap with
    simplices below it, here routed to the counter, is counted."""
    entries, max_dim = DEGENERATE[name]
    m = matrix_from(entries)
    monkeypatch.setattr(filtration, "COUNT_TOP_ABOVE", 0)
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
    assert len(f.births) == min(max_dim, first_empty) + 1
    # A top dimension at a cap of 2 or more, with more than COUNT_TOP_ABOVE
    # simplices below it, is counted and not stored.
    below = sum(len(v) == max_dim for v in previous)
    counted = max_dim >= 2 and first_empty >= max_dim and below > filtration.COUNT_TOP_ABOVE
    assert len(f.vertices) == len(f.facets) == len(f.births) - counted
    for k, births in enumerate(f.births):
        assert len(births) == sum(len(v) == k + 1 for v in previous)
    for k, (rows, facets) in enumerate(zip(f.vertices, f.facets)):
        assert rows.shape == (len(f.births[k]), k + 1)
        assert facets.shape == (len(f.births[k]), k + 1 if k else 0)
    assert barcode(f, normalize=False) == boundary_barcode(f)


def test_top_column_that_cancels_on_a_reduced_column(monkeypatch):
    """Eight points at tied integer distances, stopped, at cap 2 and the
    triangles counted: an edge's column, reduced against the implicit
    triangles, cancels to zero on the column of a reduced owner, and the
    pairs and bars still equal the boundary reduction's."""
    upper = [2, 3, 1, 1, 3, 0, 0, 1, 2, 0, 3, 2, 2, 2, 3, 1, 1, 3, 0, 0, 0, 0, 0, 3, 2, 1, 2, 2]
    monkeypatch.setattr(filtration, "COUNT_TOP_ABOVE", 0)
    f = build_filtration(DistanceMatrix(entries=symmetric(8, upper)), max_dim=2,
                         stop_when_connected=True)
    assert len(f.vertices) == 2
    R, _ = reduce_matrix(total_boundary_matrix(f))
    assert pair_sets(f, persistence_pairs(f)) == pair_sets(f, boundary_pairs(R, f))
    assert barcode(f, normalize=False) == boundary_barcode(f)


grid_clouds = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 9),
    st.sampled_from(sorted(PLANAR_METRICS)),
).map(lambda t: build_distance_matrix(
    np.floor(random_points(np.random.default_rng(t[0]), t[1]) * 4), t[2]).entries)


@settings(max_examples=150, deadline=None)
@given(st.one_of(dice_like, coincident, grid_clouds), st.integers(2, 5), st.booleans())
@example(np.zeros((7, 7)), 5, False)
@example(np.zeros((2, 2)), 2, True)
def test_counted_top_dimension_equals_brute_force_cliques_per_birth(entries, max_dim, stop):
    """Tied integer distances, coincident points and points on a 4 × 4
    grid: the top dimension's births, counted per birth and never built,
    are those of the brute-force cliques of its size by the last
    threshold, each born with its longest edge.  A top dimension at the
    cap, with simplices below it, counted however few they are, has no
    vertex or facet rows."""
    m = DistanceMatrix(entries=entries)
    with tops_counted_above(0):
        f = build_filtration(m, max_dim=max_dim, stop_when_connected=stop)
    top = len(f.births) - 1
    cliques = [s for s in flag_complex_brute(m, f.span_end, max_dim) if len(s) == top + 1]
    assert Counter(f.births[top].tolist()) == Counter(simplex_birth_brute(m, s) for s in cliques)
    assert (np.diff(f.births[top]) >= 0).all()
    counted = top == max_dim and len(f.births[top - 1]) > 0
    assert len(f.vertices) == len(f.facets) == top + 1 - counted


@settings(max_examples=100, deadline=None)
@given(st.one_of(dice_like, coincident, grid_clouds), st.integers(2, 5), st.booleans())
def test_pairs_equal_boundary_reduction_with_top_killers_by_vertices(entries, max_dim, stop):
    """Pair by pair, the top dimension counted however small it is and its
    killers named by their vertices, the pairs equal those of the boundary
    reduction on tied, coincident and grid inputs."""
    with tops_counted_above(0):
        f = build_filtration(DistanceMatrix(entries=entries), max_dim=max_dim,
                             stop_when_connected=stop)
    R, _ = reduce_matrix(total_boundary_matrix(f))
    assert pair_sets(f, persistence_pairs(f)) == pair_sets(f, boundary_pairs(R, f))


def assert_routes_agree(m, max_dim, stop):
    """Built with every top dimension counted and with every one stored,
    ``m`` gives the same simplices and barcode columns equal bit for bit."""
    built = []
    for above in (0, math.inf):
        with tops_counted_above(above):
            built.append(build_filtration(m, max_dim=max_dim, stop_when_connected=stop))
    counted, stored = built
    assert len(stored.vertices) == len(stored.births) == len(counted.births)
    assert counted.simplices == stored.simplices
    bars = [barcode(f, normalize=False) for f in built]
    for name in ("dim", "birth", "death", "open", "count"):
        a, b = (getattr(bc, name) for bc in bars)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert bars[0] == bars[1]


@settings(max_examples=150, deadline=None)
@given(st.one_of(dice_like, coincident, grid_clouds), st.integers(2, 5), st.booleans())
@example(np.zeros((7, 7)), 5, False)
def test_counted_and_stored_tops_give_the_same_simplices_and_bars(entries, max_dim, stop):
    """Tied, coincident and grid inputs at caps 2 to 5, stopped or not: a
    top dimension counted and paired against implicit cofaces gives the
    simplices and the barcode bits of the same dimension built and
    stored."""
    assert_routes_agree(DistanceMatrix(entries=entries), max_dim, stop)


@settings(max_examples=100, deadline=None)
@given(st.one_of(dice_like, coincident, grid_clouds), st.integers(1, 5), st.booleans(),
       st.sampled_from([0, filtration.COUNT_TOP_ABOVE]), st.booleans(), st.data())
def test_runs_expand_to_the_rows_of_one_bar_each(entries, max_dim, stop, above, normalize, data):
    """Tied, coincident and grid inputs, every top dimension counted or
    only those past ``COUNT_TOP_ABOVE``: the barcode's runs are maximal,
    and repeated by their ``count`` they are the sorted rows of the
    one-row-per-bar reference bit for bit.  Those rows, shuffled and each
    given count 1, build a barcode equal to the pipeline's."""
    with tops_counted_above(above):
        f = build_filtration(DistanceMatrix(entries=entries), max_dim=max_dim,
                             stop_when_connected=stop)
    normalize = normalize and f.max_distance > 0
    bc = barcode(f, normalize=normalize)
    rows = bar_rows(f, normalize)
    want = [np.array([row[i] for row in rows], dtype=dtype)
            for i, dtype in enumerate((np.int64, np.float64, np.float64, bool))]
    got = (bc.dim, bc.birth, bc.death, bc.open)
    assert (bc.count > 0).all()
    for a, b in zip(got, want):
        a = a.repeat(bc.count)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    same = np.ones(len(bc.dim) - 1, dtype=bool)
    for x in (bc.dim, bc.birth.view(np.int64), bc.death.view(np.int64), bc.open):
        same &= x[1:] == x[:-1]
    assert not same.any()
    assert bc.count[: bc.n_bars].sum() == len(bc.bars) == sum(
        row[3] or row[1] != row[2] for row in rows)
    order = data.draw(st.permutations(range(len(rows))))
    shuffled = Barcode(
        *(x[order] for x in want), count=np.ones(len(rows), dtype=np.intp), metric="",
        max_dim=f.max_dim, n_points=f.n_points, normalized=normalize, span_end=bc.span_end,
    )
    assert shuffled == bc


@pytest.mark.parametrize("dropped", [16, 15])
def test_top_dimension_is_counted_past_count_top_above_rows(dropped):
    """33 points at distances 1 and 2, all kept by the stop at 2 but for
    ``dropped`` pairs at 3, at cap 2: 512 edges, as many as
    ``COUNT_TOP_ABOVE``, store their triangles, and 513 count them; either
    way both routes agree."""
    assert filtration.COUNT_TOP_ABOVE == 512
    entries = 1 + np.random.default_rng(dropped).integers(0, 2, (33, 33))
    entries[:, 32] = 2  # only edges at 2 reach vertex 32, so the stop is at 2
    entries[0, 1:dropped + 1] = 3
    entries = np.triu(entries, 1)
    m = DistanceMatrix(entries=(entries + entries.T).astype(float))
    f = build_filtration(m, max_dim=2, stop_when_connected=True)
    assert f.thresholds == [1.0, 2.0] and len(f.vertices[1]) == 528 - dropped
    assert len(f.vertices) == (3 if dropped == 16 else 2)  # triangles stored or counted
    assert_facets_equal_lookup(f)
    assert_routes_agree(m, 2, True)


@settings(max_examples=60, deadline=None)
@given(dice_like, st.integers(1, 5), st.booleans(), st.data())
def test_negative_zero_entries_give_the_bytes_of_positive_zeros(
    tmp_path_factory, entries, max_dim, stop, data
):
    """A matrix holding -0.0 gives the barcode file bytes of its copy that
    holds +0.0 there: the matrix holds every zero as +0.0, so the births
    of a counted top dimension, read off the distinct edge births, are the
    entries themselves."""
    flip = data.draw(st.lists(st.booleans(), min_size=entries.size, max_size=entries.size))
    negative = np.where((entries == 0) & np.reshape(flip, entries.shape), -0.0, entries)
    written = []
    for source in (negative, entries):
        with tops_counted_above(0):
            f = build_filtration(DistanceMatrix(entries=source), max_dim=max_dim,
                                 stop_when_connected=stop)
        path = tmp_path_factory.mktemp("signed") / "barcode.csv"
        write_barcode_csv(str(path), barcode(f, normalize=False))
        written.append(path.read_bytes())
    assert written[0] == written[1]


#: SHA-256 of the barcode columns (dim int64, birth and death float64,
#: open bool), one row per bar, of the 31 majority dice, stopped at
#: connectivity, per matrix and cap, as the engine gave them while it
#: still built the top dimension and held a row per bar.
MAJORITY_DIGESTS = {
    ("similarity", 4): "3c473880af4beb75bd08bd1a10d65782ea7b3315e31d56d47a88de92ad0c9074",
    ("similarity", 6): "4f80d419db84ffd9954f983dc26573e3899e30a0f2f336652748c67124c58882",
    ("euclidean", 4): "f98c9ccc961942970484a6cd1d624c1175f42cbbf7180c5a153cc2ec3719e58c",
    ("euclidean", 6): "f98c9ccc961942970484a6cd1d624c1175f42cbbf7180c5a153cc2ec3719e58c",
    ("foliation-symmetry", 4): "2d47e000b107f7c2f0e38551804464c70b98f11fde0ccade11972f8b290aee06",
    ("foliation-symmetry", 6): "7d3a89c6b2c18a712f5a35594114a73121854af232f8b945413139fb604d45e6",
}


@pytest.mark.parametrize("cap", [4, 6])
def test_majority_dice_barcode_digests_are_pinned(cap):
    """The barcodes of the 31 majority dice under all three matrices keep
    their pinned digests with the top dimension counted, their runs
    expanded by ``count``."""
    for m in _dice_matrices("majority"):
        bc = barcode(build_filtration(m, max_dim=cap, stop_when_connected=True), normalize=False)
        digest = hashlib.sha256()
        for column, dtype in zip((bc.dim, bc.birth, bc.death, bc.open), ("<i8", "<f8", "<f8", "?")):
            digest.update(column.repeat(bc.count).astype(dtype).tobytes())
        assert digest.hexdigest() == MAJORITY_DIGESTS[m.metric, cap]


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
    assert len(made[0].bars) + len(made[0].zero_length) == made[0].count.sum()


def test_barcode_equality_compares_every_field(square_matrix):
    f = build_filtration(square_matrix, max_dim=2)
    bc = barcode(f)
    assert bc == barcode(f)
    death = bc.death.copy()
    death[0] = np.nextafter(death[0], 0.0)
    assert bc != dataclasses.replace(bc, death=death)
    assert bc != dataclasses.replace(bc, open=~bc.open)
    assert bc != dataclasses.replace(bc, count=bc.count + 1)
    k = np.flatnonzero(~bc.open[: bc.n_bars])[0]
    death = bc.death.copy()
    death[k] = bc.birth[k]
    shorter = dataclasses.replace(bc, death=death)
    assert len(shorter.zero_length) == len(bc.zero_length) + bc.count[k]
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


def test_barcode_csv_body_is_written_in_bounded_pieces(tmp_path, monkeypatch):
    """A body of several thousand lines, with runs of equal bars that
    cross the piece boundaries, the last a run of 5,000 as in the counted
    top dimension of the majority dice, is handed to the text layer in
    pieces of at most ``_PIECE_LINES`` lines, and the file equals the
    per-record reference."""
    lengths = [1] * 1500 + [3000, 700, 1, 2500] + [1] * 300 + [5000]
    bars = [Bar(1, i / 7000, 1.0, True) for i, count in enumerate(lengths) for _ in range(count)]
    bc = barcode_of(bars, metric="m", max_dim=1, n_points=3, normalized=True, span_end=1.0)
    assert bc.count.tolist() == lengths
    pieces = []
    write_text = persistence.fileio.write_text

    def keep_pieces(path, lines):
        lines = list(lines)
        pieces.extend(lines[lines.index(BARCODE_HEADER) + 1:])
        write_text(path, lines)

    monkeypatch.setattr(persistence.fileio, "write_text", keep_pieces)
    write_barcode_csv(str(tmp_path / "barcode.csv"), bc)
    assert len(pieces) == -(-len(bars) // persistence._PIECE_LINES)
    assert all(piece.count("\n") < persistence._PIECE_LINES for piece in pieces)
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


def test_signed_zero_rows_in_a_shuffled_file_form_one_run_each(tmp_path):
    """A file holding -0 rows among 0 rows, shuffled and cut by a comment:
    rows of equal bits form one run whatever lies between them, -0 before
    0; the file reads back equal to the barcode of its rows, one each, and
    is written back as the per-record reference in barcode order.  ``==``
    tells the signs apart as the runs do, though the records are equal."""
    lines = (["0,0,0.5,0"] * 5 + ["0,-0,0.5,0"] * 4 + ["0,0,1,1"] * 3
             + ["1,0,0,0"] * 3 + ["1,-0,-0,0"] * 2)
    np.random.default_rng(5).shuffle(lines)
    lines.insert(8, "# a comment between rows")
    path = tmp_path / "barcode.csv"
    path.write_text(META + BARCODE_HEADER + "\n" + "\n".join(lines) + "\n")
    bc = read_barcode_csv(str(path))
    assert bc.count.tolist() == [4, 5, 3, 2, 3] and bc.n_bars == 3
    assert np.signbit(bc.birth).tolist() == [True, False, False, True, False]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    bars = [Bar(int(d), float(b), float(e), o == "1") for d, b, e, o in rows]
    meta = dict(metric="m", max_dim=2, n_points=4, normalized=True, span_end=1.0)
    assert bc == barcode_of(bars, **meta)
    unsigned = [b._replace(birth=abs(b.birth), death=abs(b.death)) for b in bars]
    plus = barcode_of(unsigned, **meta)
    minus = barcode_of([b._replace(birth=-0.0) for b in unsigned], **meta)  # every birth is 0
    assert plus.count.tolist() == minus.count.tolist() == [9, 3, 5]
    assert plus.bars == minus.bars == bc.bars
    assert plus != bc and plus != minus
    write_barcode_csv(str(path), bc)
    assert_csv_lines_equal_loop(path, bc)
    assert read_barcode_csv(str(path)) == bc


def test_barcode_rows_stand_for_at_least_one_bar():
    """A row's ``count`` must be at least 1; without one, each row is one
    bar, and ``count`` comes last, so positional arguments keep their
    meaning."""
    meta = dict(metric="m", max_dim=1, n_points=2, normalized=True, span_end=1.0)
    rows = dict(dim=np.array([0, 0]), birth=np.zeros(2), death=np.full(2, 0.5),
                open=np.zeros(2, dtype=bool))
    bc = Barcode(**rows, **meta)
    assert bc.count.tolist() == [2] and bc.n_bars == 1
    assert Barcode(*rows.values(), *meta.values()) == bc
    for count in ([1, 0], [2, -1]):
        with pytest.raises(ValueError, match="at least one bar"):
            Barcode(**rows, **meta, count=np.array(count))


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
