"""Acceptance gate: the end-to-end guarantees this package makes.

Each test prints one ``ACCEPTANCE Cn <label>: PASS|FAIL`` line directly to
the terminal (bypassing capture) so a full run yields a ten-line scorecard.
Numeric expectations are either closed forms evaluated in float arithmetic,
values frozen from independent brute-force computations, or published
figures for the six-sided dice space.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from oracles import (
    bars_alive,
    barcode_of,
    betti_numbers,
    dice_tuples,
    flag_complex_brute,
    in_dim,
    longest_cycle,
    parse_die,
)
from ripsbars.cli import main
from ripsbars.cloud import four_hole_disk, sample_region
from ripsbars.dice import (
    build_beating_graph,
    enumerate_dice,
    induced_subgraph,
    non_transitive_subset,
    similarity_distance_matrix,
)
from ripsbars.filtration import build_filtration
from ripsbars.metrics import build_distance_matrix
from ripsbars.persistence import (
    Bar,
    barcode,
    read_barcode_csv,
)
from ripsbars.stats import bar_stats

PLANAR = ("euclidean", "taxicab", "supremum")

TEN_LABELS = (
    "112566", "114555", "122556", "144444", "222366",
    "222555", "234444", "333336", "333345", "333444",
)

SEVEN_CYCLE_LABELS = (
    "333336", "112566", "144444", "333345", "222366", "114555", "234444",
)


@contextmanager
def gate(capsys, cid, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {cid} {label}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"ACCEPTANCE {cid} {label}: PASS")


def note(capsys, cid, text):
    with capsys.disabled():
        print(f"ACCEPTANCE {cid} note: {text}")


def dt6():
    return enumerate_dice(6, 6, 21)


def test_c01_live_bar_counts_equal_betti_numbers(capsys):
    """200 random clouds (n ≤ 12, complex dimension ≤ 3, three metrics):
    at every critical threshold the live-bar counts per dimension equal the
    Betti numbers from dense Gaussian elimination.  Budget: 60 s."""
    with gate(capsys, "C1", "live bar counts equal Betti numbers"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260814)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            max_dim = int(rng.integers(1, 4))
            coords = rng.uniform(-1.5, 1.5, size=(n, 2))
            for metric in PLANAR:
                m = build_distance_matrix(coords, metric)
                f = build_filtration(m, max_dim=max_dim)
                bc = barcode(f, normalize=False, metric=metric)
                for eps in f.thresholds:
                    alive = bars_alive(bc.bars, eps)
                    betti = betti_numbers(f, eps)
                    for k in range(max_dim + 1):
                        assert alive.get(k, 0) == betti[k], (metric, eps, k)
        assert time.perf_counter() - start < 60.0


def test_c02_incremental_complex_equals_brute_force_cliques(capsys):
    """100 random instances (n ≤ 10): the incrementally built simplex set at
    the final threshold equals brute-force clique enumeration.  Budget: 30 s."""
    with gate(capsys, "C2", "incremental complex equals brute-force cliques"):
        start = time.perf_counter()
        rng = np.random.default_rng(424242)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            max_dim = int(rng.integers(1, 5))
            coords = rng.uniform(0.0, 2.0, size=(n, 2))
            m = build_distance_matrix(coords, "euclidean")
            f = build_filtration(m, max_dim=max_dim)
            eps = f.thresholds[-1]
            assert {s.vertices for s in f.simplices} == flag_complex_brute(m, eps, max_dim)
        assert time.perf_counter() - start < 30.0


def test_c03_unit_square_fixture(capsys):
    """Unit-square corners, Euclidean: one H1 bar at normalized (1/√2, 1),
    an open H0 bar, and β₀ = 1 from ε = max/√2 on.  Tolerance 1e-12."""
    with gate(capsys, "C3", "unit square H1 bar and connectivity"):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        m = build_distance_matrix(pts, "euclidean")
        f = build_filtration(m, max_dim=2)
        bc = barcode(f, normalize=True, metric="euclidean")
        h1 = in_dim(bc, 1)
        assert len(h1) == 1
        assert abs(h1[0].birth - 1 / math.sqrt(2)) <= 1e-12
        assert abs(h1[0].death - 1.0) <= 1e-12
        assert not h1[0].open
        h0_open = [b for b in in_dim(bc, 0) if b.open]
        assert len(h0_open) == 1
        assert betti_numbers(f, m.max_distance() / math.sqrt(2))[0] == 1


def test_c04_grime_dice_probability(capsys):
    """The classic pair (1,1,5,5,5,5) vs (3,4,4,4,4,4) wins 24 of 36."""
    with gate(capsys, "C4", "Grime dice win 24/36"):
        pair = (parse_die("115555"), parse_die("344444"))
        g = build_beating_graph(pair, "strict")
        wins, losses = int(g.wins[0, 1]), int(g.wins[1, 0])
        assert (wins, 36 - wins - losses, losses) == (24, 0, 12)
        assert wins * 3 == 36 * 2  # = 2/3


def test_c05_seven_cycle_and_longest_cycle(capsys):
    """The published directed 7-cycle exists under the majority convention,
    and the longest simple cycle of the ten-die tournament, found by
    exhaustive search, has length 7."""
    with gate(capsys, "C5", "7-cycle present; longest cycle length 7"):
        space = dt6()
        cycle = [parse_die(s) for s in SEVEN_CYCLE_LABELS]
        g_major = build_beating_graph(space, "majority")
        pos = {d: k for k, d in enumerate(dice_tuples(g_major.faces))}
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert g_major.beats[pos[a], pos[b]]
        g_strict = build_beating_graph(space, "strict")
        ten = non_transitive_subset(g_strict)
        assert len(ten) == 10
        sub = induced_subgraph(g_strict, ten)
        assert len(longest_cycle(sub)) == 7
    note(
        capsys,
        "C5",
        "length 7 holds on the strict-convention tournament; the majority-"
        "convention subgraph on the same ten dice admits a 10-cycle",
    )


def test_c06_similar_dice_trio_degeneracy(capsys):
    """{112566, 122556, 222555} sit pairwise at similarity distance 0 on the
    computed ten-die tournament, because their in/out neighborhoods agree."""
    with gate(capsys, "C6", "similar trio at similarity distance 0"):
        g = build_beating_graph(dt6(), "strict")
        sub = induced_subgraph(g, non_transitive_subset(g))
        trio = [parse_die(s) for s in ("112566", "122556", "222555")]
        nodes = dice_tuples(sub.faces)
        for d in trio:
            assert d in nodes
        dmat = similarity_distance_matrix(sub)
        idx = {d: i for i, d in enumerate(nodes)}
        for a, b in itertools.combinations(trio, 2):
            assert dmat.entries[idx[a], idx[b]] == 0.0
            rest = [k for k in range(sub.n) if k not in (idx[a], idx[b])]
            assert np.array_equal(sub.beats[idx[a], rest], sub.beats[idx[b], rest])
            assert np.array_equal(sub.beats[rest, idx[a]], sub.beats[rest, idx[b]])
    note(capsys, "C6", "trio neighborhoods match the published graph exactly")


def test_c07_convention_reproducing_the_published_ten(capsys):
    """Documented outcome: which tie convention reproduces the published
    ten-element non-transitive subset.  Answer: strict (majority yields 31),
    pinned here as a regression."""
    space = dt6()
    published = tuple(sorted(parse_die(s) for s in TEN_LABELS))
    g_strict, g_major = (build_beating_graph(space, c) for c in ("strict", "majority"))
    strict_ntd = dice_tuples(g_strict.faces[non_transitive_subset(g_strict)])
    majority_ntd = dice_tuples(g_major.faces[non_transitive_subset(g_major)])
    with gate(capsys, "C7", "strict convention reproduces the published ten"):
        assert strict_ntd == published
        assert majority_ntd != published
        assert len(majority_ntd) == 31
    note(
        capsys,
        "C7",
        f"strict matches all 10 dice; majority marks {len(majority_ntd)} of "
        f"{len(space)} dice non-transitive",
    )


def test_c08_normalized_results_invariant_under_scaling(capsys):
    """Multiplying every coordinate by 3.7 preserves threshold order exactly
    and changes no normalized bar or statistic by more than 1e-12."""
    with gate(capsys, "C8", "scaling by 3.7 leaves normalized results unchanged"):
        pts = sample_region(four_hole_disk(), 20, seed=5)
        scaled = 3.7 * pts
        for metric in PLANAR:
            m1 = build_distance_matrix(pts, metric)
            m2 = build_distance_matrix(scaled, metric)
            iu = np.triu_indices(m1.n, 1)
            order1 = np.argsort(m1.entries[iu], kind="stable")
            order2 = np.argsort(m2.entries[iu], kind="stable")
            assert (order1 == order2).all()
            f1, f2 = build_filtration(m1, max_dim=2), build_filtration(m2, max_dim=2)
            t1 = np.array(f1.thresholds) / m1.max_distance()
            t2 = np.array(f2.thresholds) / m2.max_distance()
            assert t1.shape == t2.shape
            assert np.abs(t1 - t2).max() <= 1e-12
            bc1 = barcode(f1, normalize=True)
            bc2 = barcode(f2, normalize=True)
            assert len(bc1.bars) == len(bc2.bars)
            assert len(bc1.zero_length) == len(bc2.zero_length)
            for x, y in zip(bc1.bars, bc2.bars):
                assert (x.dim, x.open) == (y.dim, y.open)
                assert abs(x.birth - y.birth) <= 1e-12
                assert abs(x.death - y.death) <= 1e-12
            for dim in range(3):
                s1, s2 = bar_stats(bc1, dim), bar_stats(bc2, dim)
                assert s1.count == s2.count
                if s1.count:
                    assert abs(s1.avg_lifespan - s2.avg_lifespan) <= 1e-12
                    assert abs(s1.min_lifespan - s2.min_lifespan) <= 1e-12
                    assert abs(s1.max_lifespan - s2.max_lifespan) <= 1e-12


def test_c09_end_to_end_comparison_run_is_stable(capsys, tmp_path):
    """Full CLI pipeline on the pinned 50-point cloud (seed 7), all three
    metrics, stopping once connected: every metric yields exactly one open
    H0 bar, and rerunning reproduces every output byte for byte.
    Budget: 120 s."""
    with gate(capsys, "C9", "end-to-end run: one open H0 each, byte-stable"):
        start = time.perf_counter()
        out = tmp_path / "run"
        assert main(["cloud", "--out", str(out), "--points", "50", "--seed", "7"]) == 0
        compare_args = [
            "compare",
            "--input",
            str(out / "points.csv"),
            "--out",
            str(out),
            "--stop-on-connected",
            "--svg",
        ]
        assert main(compare_args) == 0
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        expected = {"points.csv", "stats.csv", "stats.txt"}
        for metric in PLANAR:
            expected |= {f"barcode_{metric}.csv", f"barcode_{metric}.svg"}
        assert set(snapshot) == expected
        for metric in PLANAR:
            bc = read_barcode_csv(str(out / f"barcode_{metric}.csv"))
            h0_open = [b for b in bc.bars if b.dim == 0 and b.open]
            assert len(h0_open) == 1, metric
        assert main(compare_args) == 0
        again = {p.name: p.read_bytes() for p in out.iterdir()}
        assert again == snapshot
        assert time.perf_counter() - start < 120.0


def test_c10_bar_statistics_closed_forms(capsys):
    """bar_stats on hand-built barcodes equals the closed forms evaluated in
    float arithmetic: H1 {[0.1,0.3), [0.2,0.6)} → avg (0.2+0.4)/2, min 0.2,
    max 0.4; an empty dimension has no lifespans; a single open bar [0,1)
    gives avg = min = max = 1."""
    with gate(capsys, "C10", "bar statistics match closed forms"):
        two = barcode_of(
            (Bar(dim=1, birth=0.1, death=0.3), Bar(dim=1, birth=0.2, death=0.6)),
            metric="euclidean",
            max_dim=2,
            n_points=4,
            normalized=True,
            span_end=1.0,
        )
        s = bar_stats(two, 1)
        assert s.count == 2
        assert s.avg_lifespan == ((0.3 - 0.1) + (0.6 - 0.2)) / 2
        assert s.min_lifespan == 0.3 - 0.1
        assert s.max_lifespan == 0.6 - 0.2

        empty = bar_stats(two, 0)
        assert empty.count == 0
        assert empty.avg_lifespan is None
        assert empty.min_lifespan is None
        assert empty.max_lifespan is None

        lone = barcode_of(
            (Bar(dim=0, birth=0.0, death=1.0, open=True),),
            metric="euclidean",
            max_dim=2,
            n_points=1,
            normalized=True,
            span_end=1.0,
        )
        s0 = bar_stats(lone, 0)
        assert (s0.count, s0.avg_lifespan, s0.min_lifespan, s0.max_lifespan) == (
            1,
            1.0,
            1.0,
            1.0,
        )
