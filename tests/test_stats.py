import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points
from oracles import bar_stats_loop, barcode_of
from ripsbars.filtration import build_filtration
from ripsbars.metrics import build_distance_matrix
from ripsbars.persistence import Bar, barcode
from ripsbars.stats import (
    BarStats,
    bar_stats,
    compare,
    format_stats_table,
    stats_report,
    write_stats_csv,
)


def make_barcode(bars, n_points=5, normalized=True, metric="euclidean"):
    return barcode_of(
        tuple(bars),
        metric=metric,
        max_dim=2,
        n_points=n_points,
        normalized=normalized,
        span_end=1.0,
    )


def test_two_closed_bars():
    bc = make_barcode(
        [Bar(dim=1, birth=0.1, death=0.3), Bar(dim=1, birth=0.2, death=0.6)]
    )
    s = bar_stats(bc, 1)
    assert s.count == 2
    # exact float arithmetic, not decimal: lifespans are 0.3-0.1 and 0.6-0.2
    assert s.avg_lifespan == ((0.3 - 0.1) + (0.6 - 0.2)) / 2
    assert s.min_lifespan == 0.3 - 0.1
    assert s.max_lifespan == 0.6 - 0.2


def test_empty_dimension_has_no_lifespans():
    bc = make_barcode([Bar(dim=0, birth=0.0, death=0.5)])
    s = bar_stats(bc, 1)
    assert s == BarStats(
        dim=1, count=0, avg_lifespan=None, min_lifespan=None, max_lifespan=None
    )


def test_single_open_bar_spans_the_whole_range():
    bc = make_barcode([Bar(dim=0, birth=0.0, death=1.0, open=True)])
    s = bar_stats(bc, 0)
    assert (s.count, s.avg_lifespan, s.min_lifespan, s.max_lifespan) == (
        1,
        1.0,
        1.0,
        1.0,
    )


def test_open_bar_lifespan_measured_to_right_edge():
    bc = make_barcode([Bar(dim=1, birth=0.25, death=1.0, open=True)])
    assert bar_stats(bc, 1).avg_lifespan == 0.75


def test_unnormalized_barcode_rejected():
    bc = make_barcode([Bar(dim=0, birth=0.0, death=2.0)], normalized=False)
    with pytest.raises(ValueError, match="normalized"):
        bar_stats(bc, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=62),
            st.integers(min_value=1, max_value=64),
        ),
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_stats_are_order_invariant(raw, shuffler):
    # dyadic endpoints keep every partial sum exact, so the average cannot
    # depend on summation order
    bars = [
        Bar(dim=d, birth=b / 64.0, death=min(1.0, (b + g) / 64.0))
        for d, b, g in raw
    ]
    shuffled = list(bars)
    shuffler.shuffle(shuffled)
    for dim in range(4):
        assert bar_stats(make_barcode(bars), dim) == bar_stats(
            make_barcode(shuffled), dim
        )


def test_average_is_a_left_to_right_sum(tmp_path):
    """Ten lifespans of 0.1 sum left to right to 0.9999999999999999, so the
    average prints as 0.099999999999999992 on every Python; a compensated
    sum (Python 3.12's ``sum``) would print 0.10000000000000001."""
    bc = make_barcode([Bar(dim=1, birth=0.0, death=0.1)] * 10)
    path = tmp_path / "stats.csv"
    write_stats_csv(str(path), stats_report([("euclidean", bc)]))
    row = "euclidean,1,10,0.099999999999999992,0.10000000000000001,0.10000000000000001"
    assert row in path.read_text().splitlines()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.one_of(st.sampled_from((0.0, 0.1, 0.25, 1 / 3)), st.floats(0.0, 1.0)),
            st.one_of(st.sampled_from((0.1, 0.5, 1.0)), st.floats(0.0, 1.0)),
            st.booleans(),
        ),
        max_size=30,
    ),
    st.integers(min_value=0, max_value=5),
)
def test_stats_from_columns_equal_record_loop(rows, zeros):
    """Unsorted bars, repeated or distinct lifespans, open bars, zero-length
    pairs to skip, and empty dimensions below and above the occupied ones."""
    bars = [
        Bar(d, min(a, b), 1.0 if o else max(a, b), o) for d, a, b, o in rows
    ]
    bc = barcode_of(bars, [Bar(2, 0.5, 0.5)] * zeros, metric="m", max_dim=5,
                    n_points=5, normalized=True, span_end=1.0)
    for dim in range(6):
        assert bar_stats(bc, dim) == bar_stats_loop(bc, dim)
    report = stats_report([("m", bc)])
    assert all(report.cells[("m", d)] == bar_stats_loop(bc, d) for d in report.dims)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_stats_equal_record_loop(seed):
    m = build_distance_matrix(random_points(np.random.default_rng(seed), 14), "taxicab")
    bc = barcode(build_filtration(m, max_dim=3), normalize=True)
    for dim in range(5):
        assert bar_stats(bc, dim) == bar_stats_loop(bc, dim)


def test_counts_partition_the_barcode():
    rng = np.random.default_rng(5)
    m = build_distance_matrix(random_points(rng, 8), "euclidean")
    bc = barcode(build_filtration(m, max_dim=2), normalize=True, metric="euclidean")
    total = sum(bar_stats(bc, d).count for d in range(bc.top_dim() + 1))
    assert total == len(bc.bars)


# ------------------------------------------------------------------ compare

def test_compare_identical_runs_give_identical_cells():
    bc = make_barcode(
        [Bar(dim=0, birth=0.0, death=1.0, open=True), Bar(dim=1, birth=0.3, death=0.7)]
    )
    rep = compare([("euclidean", bc), ("taxicab", bc)])
    assert rep.metrics == ("euclidean", "taxicab")
    assert rep.dims == (0, 1)
    for dim in rep.dims:
        assert rep.cells[("euclidean", dim)] == rep.cells[("taxicab", dim)]


def test_compare_needs_two_runs():
    bc = make_barcode([Bar(dim=0, birth=0.0, death=1.0)])
    with pytest.raises(ValueError, match="at least 2"):
        compare([("only", bc)])


def test_compare_rejects_duplicate_names():
    bc = make_barcode([Bar(dim=0, birth=0.0, death=1.0)])
    with pytest.raises(ValueError, match="duplicate"):
        compare([("m", bc), ("m", bc)])


def test_compare_rejects_mismatched_point_counts():
    a = make_barcode([Bar(dim=0, birth=0.0, death=1.0)], n_points=5)
    b = make_barcode([Bar(dim=0, birth=0.0, death=1.0)], n_points=6)
    with pytest.raises(ValueError, match="point counts"):
        compare([("a", a), ("b", b)])


def test_dims_stop_at_highest_occupied_dimension():
    a = make_barcode([Bar(dim=0, birth=0.0, death=1.0, open=True)])
    b = make_barcode(
        [
            Bar(dim=0, birth=0.0, death=1.0, open=True),
            Bar(dim=2, birth=0.4, death=0.9),
        ]
    )
    assert compare([("a", a), ("b", b)]).dims == (0, 1, 2)
    assert compare([("a", a), ("a2", a)]).dims == (0,)


def test_stats_report_single_run_and_empty():
    bc = make_barcode([Bar(dim=0, birth=0.0, death=1.0)])
    rep = stats_report([("solo", bc)])
    assert rep.metrics == ("solo",)
    with pytest.raises(ValueError, match="at least one"):
        stats_report([])


def test_report_with_no_bars_still_lists_dimension_zero():
    rep = stats_report([("empty", make_barcode([]))])
    assert rep.dims == (0,)
    assert rep.cells[("empty", 0)].count == 0


# ------------------------------------------------------------------- output

def test_stats_csv_layout(tmp_path):
    a = make_barcode([Bar(dim=0, birth=0.0, death=0.5)])
    b = make_barcode(
        [Bar(dim=0, birth=0.0, death=1.0, open=True), Bar(dim=1, birth=0.25, death=0.5)]
    )
    path = tmp_path / "stats.csv"
    write_stats_csv(str(path), compare([("euclidean", a), ("supremum", b)]))
    lines = path.read_text().splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert data[0] == "metric,dim,count,avg,min,max"
    assert data[1] == "euclidean,0,1,0.5,0.5,0.5"
    assert data[2] == "supremum,0,1,1,1,1"
    assert data[3] == "euclidean,1,0,-,-,-"
    assert data[4] == "supremum,1,1,0.25,0.25,0.25"
    assert lines[0].startswith("# ripsbars-version")


def test_stats_table_rows_and_alignment():
    a = make_barcode([Bar(dim=0, birth=0.0, death=0.5)])
    b = make_barcode([Bar(dim=1, birth=0.25, death=0.5)])
    text = format_stats_table(compare([("euclidean", a), ("taxicab", b)]))
    lines = text.splitlines()
    assert lines[0].split() == ["dim", "metric", "count", "avg", "min", "max"]
    assert lines[1].split() == ["0", "euclidean", "1", "0.5", "0.5", "0.5"]
    assert lines[2].split() == ["0", "taxicab", "0", "-", "-", "-"]
    assert lines[3].split() == ["1", "euclidean", "0", "-", "-", "-"]
    assert lines[4].split() == ["1", "taxicab", "1", "0.25", "0.25", "0.25"]
    # columns align: every "metric" field starts at the same offset
    offsets = {ln.index(name) for ln, name in zip(lines[1:3], ["euclidean", "taxicab"])}
    assert len(offsets) == 1


def test_normalized_stats_invariant_under_rescaling():
    rng = np.random.default_rng(11)
    pts = random_points(rng, 10)
    scaled = pts * 3.7
    for metric in ("euclidean", "taxicab", "supremum"):
        bc1 = barcode(
            build_filtration(build_distance_matrix(pts, metric), max_dim=2),
            normalize=True,
        )
        bc2 = barcode(
            build_filtration(build_distance_matrix(scaled, metric), max_dim=2),
            normalize=True,
        )
        for dim in range(3):
            s1, s2 = bar_stats(bc1, dim), bar_stats(bc2, dim)
            assert s1.count == s2.count
            if s1.count:
                assert s1.avg_lifespan == pytest.approx(s2.avg_lifespan, abs=1e-12)
                assert s1.min_lifespan == pytest.approx(s2.min_lifespan, abs=1e-12)
                assert s1.max_lifespan == pytest.approx(s2.max_lifespan, abs=1e-12)
