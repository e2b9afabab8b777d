import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    WinCount,
    beating_probability,
    beats_loop,
    cycle_nodes_brute,
    dice_brute,
    dice_tuples,
    euclidean_dice,
    foliation,
    foliation_symmetry_distance,
    foliation_symmetry_matrix_loop,
    longest_cycle,
    pairwise_loop,
    parse_die,
    shortest_path_matrix_loop,
    similarity_matrix_loop,
    successors,
    symmetry,
    validate_pseudometric,
)
from ripsbars.dice import (
    MAX_DICE,
    MAX_FACES,
    BeatingGraph,
    UnreachableNodeError,
    build_beating_graph,
    die_label,
    enumerate_dice,
    euclidean_dice_distance_matrix,
    foliation_symmetry_distance_matrix,
    induced_subgraph,
    non_transitive_subset,
    shortest_path_matrix,
    similarity_distance_matrix,
    similarity_matrix,
    to_dot,
)
from ripsbars.metrics import DistanceMatrix

DT6_FACES = enumerate_dice(6, 6, 21)
DT6 = dice_tuples(DT6_FACES)
CONVENTIONS = ("strict", "majority")
DT6_GRAPHS = {c: build_beating_graph(DT6_FACES, c) for c in CONVENTIONS}

#: The ten dice of the published non-transitive subset of DT(6).
TEN = tuple(
    parse_die(s)
    for s in (
        "112566", "114555", "122556", "144444", "222366",
        "222555", "234444", "333336", "333345", "333444",
    )
)

SEVEN_CYCLE = [
    parse_die(s)
    for s in ("333336", "112566", "144444", "333345", "222366", "114555", "234444")
]

dt6_dice = st.sampled_from(DT6)


def _graph(dice, convention="strict"):
    """The beating graph of just these dice."""
    return build_beating_graph(dice, convention)


def _rows(dice):
    """Ascending rows of these DT(6) dice."""
    return sorted(DT6.index(d) for d in dice)


def _ntd(g):
    """The non-transitive dice of ``g``, as tuples."""
    return dice_tuples(g.faces[non_transitive_subset(g)])


def _counts(g, x, y):
    """Wins, ties and losses of ``x`` against ``y``, read off ``g.wins``."""
    nodes = dice_tuples(g.faces)
    i, j = nodes.index(x), nodes.index(y)
    wins, losses = int(g.wins[i, j]), int(g.wins[j, i])
    return WinCount(wins, len(x) ** 2 - wins - losses, losses)


def _edge(g, x, y):
    nodes = dice_tuples(g.faces)
    return bool(g.beats[nodes.index(x), nodes.index(y)])


def _assert_same_graph(a, b):
    """Equal faces, win counts, edges (values, dtypes and shapes) and convention."""
    for field in ("faces", "wins", "beats"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), strict=True)
    assert a.convention == b.convention


# ---------------------------------------------------------------- enumeration

def test_enumerate_single_side():
    assert dice_tuples(enumerate_dice(1, 6, 4)) == ((4,),)


def test_enumerate_two_sides():
    assert dice_tuples(enumerate_dice(2, 6, 7)) == ((1, 6), (2, 5), (3, 4))


def test_dt6_count_pinned():
    # Frozen regression value: brute-force enumeration of all non-decreasing
    # 6-tuples over 1..6 with face sum 21.
    assert len(DT6) == 32
    assert DT6_FACES.dtype == np.int64 and DT6_FACES.shape == (32, 6)
    assert all(sum(d) == 21 for d in DT6)
    assert all(d == tuple(sorted(d)) for d in DT6)
    assert DT6 == tuple(sorted(set(DT6)))  # unique, lexicographic


def test_enumerate_infeasible_sum_is_empty():
    """An infeasible space is an int64 array of zero rows."""
    for space in (enumerate_dice(2, 6, 13), enumerate_dice(10**19, 6, 21)):
        assert dice_tuples(space) == ()
        assert space.dtype == np.int64 and space.shape[0] == 0


def test_enumerate_rejects_bad_params():
    with pytest.raises(ValueError):
        enumerate_dice(0, 6, 5)


def test_enumerate_matches_brute_force():
    """Every space with sides and max_face in 1..8, infeasible sums included."""
    for sides, max_face in itertools.product(range(1, 9), range(1, 9)):
        for face_sum in range(sides * max_face + 2):
            want = dice_brute(sides, max_face, face_sum)
            assert dice_tuples(enumerate_dice(sides, max_face, face_sum)) == want


def test_enumerate_many_sides():
    # One loop step per side: the side count is no recursion depth.
    assert dice_tuples(enumerate_dice(1200, 1, 1200)) == ((1,) * 1200,)


def test_enumerate_counts_faces_without_listing_them():
    # No face above 16 fits six faces summing to 21; none is looked at.
    assert dice_tuples(enumerate_dice(6, 10**12, 21)) == dice_tuples(enumerate_dice(6, 16, 21))


def test_enumerate_takes_faces_and_sums_up_to_int64():
    """``max_face`` is clamped in Python ints to ``face_sum - sides + 1``,
    so a ``max_face`` past int64 gives the clamped space, and faces and sums
    up to 2**63 - 1 raise no ``OverflowError``."""
    def space(*args):
        return dice_tuples(enumerate_dice(*args))

    assert space(6, 10**19, 21) == space(6, 16, 21)
    assert space(1, 10**19, 2**63 - 1) == ((2**63 - 1,),)
    assert space(3, 2**61 + 1, 3 * 2**61 + 2) == ((2**61, 2**61 + 1, 2**61 + 1),)
    assert space(6, 6, -(10**30)) == space(10**19, 6, 21) == ()
    with pytest.raises(ValueError, match=f"more than {MAX_DICE} dice"):
        enumerate_dice(6, 2**62, 2**62)


@pytest.mark.parametrize("space", [(12, 12, 78), (10, 10, 55), (30, 30, 465)])
def test_enumerate_refuses_spaces_above_max_dice(space):
    with pytest.raises(ValueError, match=f"more than {MAX_DICE} dice"):
        enumerate_dice(*space)


def test_max_dice_bound_is_exact():
    """A space of 974 dice is enumerated and one of 1,040 refused: the count
    of kept prefixes never exceeds the count of dice."""
    assert len(dice_brute(10, 9, 39)) == 974 and len(dice_brute(9, 10, 38)) == 1040
    assert dice_tuples(enumerate_dice(10, 9, 39)) == dice_brute(10, 9, 39)
    with pytest.raises(ValueError, match=f"more than {MAX_DICE} dice"):
        enumerate_dice(9, 10, 38)


def test_enumerate_refuses_more_faces_than_max_faces():
    """The budget counts dice times sides: 4,096 sides take 8 dice, not 11
    (the spaces of 8 sides with the same faces above 1 have as many), and
    792 dice of 5,000 sides are refused while the prefixes are still few,
    naming both bounds."""
    assert len(dice_brute(8, 4, 15)) == 8 and len(dice_brute(8, 5, 15)) == 11
    assert MAX_FACES // 4096 == 8
    assert enumerate_dice(4096, 4, 4103).shape == (8, 4096)
    budget = f"at most {MAX_DICE} dice and {MAX_FACES} faces in all"
    with pytest.raises(ValueError, match=f"more than 8 dice with 4096 faces.*{budget}"):
        enumerate_dice(4096, 5, 4103)
    with pytest.raises(ValueError, match=f"more than 6 dice with 5000 faces.*{budget}"):
        enumerate_dice(5000, 23, 5021)


def test_die_label_round_trip():
    assert die_label((1, 1, 2, 5, 6, 6)) == "112566"
    assert parse_die("112566") == (1, 1, 2, 5, 6, 6)
    assert die_label((3, 12)) == "3,12"
    assert parse_die("3,12") == (3, 12)
    with pytest.raises(ValueError):
        parse_die("1a3")


# ---------------------------------------------------------- beating relation

def test_grime_pair_exact():
    x, y = parse_die("115555"), parse_die("344444")
    g = _graph([x, y])
    assert _counts(g, x, y) == beating_probability(x, y) == WinCount(24, 0, 12)
    assert beating_probability(x, y).total == 36
    assert Fraction(int(g.wins[0, 1]), 36) == Fraction(2, 3)


def test_win_counts_of_faces_far_apart():
    """The histograms run over the faces the dice have, not over every
    integer up to the largest, so faces near 2**63 cost no more."""
    x, y = (1, 2**63 - 1), (2, 2**62)
    assert _counts(_graph([x, y]), x, y) == beating_probability(x, y) == WinCount(2, 0, 2)


def test_self_play_is_symmetric():
    d = (1, 2, 3, 4, 5, 6)
    assert _counts(_graph([d]), d, d) == beating_probability(d, d) == WinCount(15, 6, 15)


def test_pair_with_ties_exact():
    # Brute force over all 36 ordered face pairs.
    x, y = parse_die("144444"), parse_die("333345")
    assert _counts(_graph([x, y]), x, y) == beating_probability(x, y) == WinCount(20, 5, 11)


def test_mismatched_side_counts_rejected():
    with pytest.raises(ValueError, match="side counts differ"):
        beating_probability((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="side counts differ"):
        build_beating_graph([(1, 2), (1, 2, 3)], "strict")


def test_beats_conventions_on_tied_pair():
    # wins 19, ties 2, losses 15 by exhaustive count: both conventions hold
    # (19/36 > 1/2 and 19 > 15).
    x, y = parse_die("333336"), parse_die("112566")
    assert _counts(DT6_GRAPHS["strict"], x, y) == WinCount(wins=19, ties=2, losses=15)
    assert _edge(DT6_GRAPHS["strict"], x, y)
    assert _edge(DT6_GRAPHS["majority"], x, y)


def test_beats_conventions_can_differ():
    # wins 12, ties 15, losses 9: majority yes, strict no (12/36 < 1/2).
    x, y = parse_die("333444"), parse_die("333345")
    assert _counts(DT6_GRAPHS["strict"], x, y) == WinCount(wins=12, ties=15, losses=9)
    assert not _edge(DT6_GRAPHS["strict"], x, y)
    assert _edge(DT6_GRAPHS["majority"], x, y)


def test_beats_self_false_both_conventions():
    for g in DT6_GRAPHS.values():
        assert not g.beats.diagonal().any()


def test_beats_unknown_convention():
    with pytest.raises(ValueError, match="convention"):
        build_beating_graph(DT6, "rerolls")


@given(dt6_dice, dt6_dice)
def test_win_count_antisymmetry(x, y):
    g = DT6_GRAPHS["majority"]
    a = beating_probability(x, y)
    assert _counts(g, x, y) == a
    assert _counts(g, y, x) == beating_probability(y, x) == (a.losses, a.ties, a.wins)
    assert a.total == 36


def test_beats_never_mutual():
    for g in DT6_GRAPHS.values():
        assert not (g.beats & g.beats.T).any()


# ----------------------------------------------------------- beating graphs

def test_tiny_space_has_no_edges():
    # All three pairs split 2/0/2, so neither convention yields any edge.
    space = enumerate_dice(2, 6, 7)
    for convention in CONVENTIONS:
        g = build_beating_graph(space, convention)
        assert g.beats.shape == (3, 3)
        assert not g.beats.any()


def test_graph_stores_exact_win_counts():
    for convention, g in DT6_GRAPHS.items():
        assert dice_tuples(g.faces) == DT6
        assert g.wins.dtype == np.int64 and g.beats.dtype == bool
        for i, x in enumerate(DT6):
            for j, y in enumerate(DT6):
                assert g.wins[i, j] == beating_probability(x, y).wins
                assert g.beats[i, j] == beats_loop(x, y, convention)


def test_graph_puts_rows_in_lexicographic_order():
    """Rows come back sorted as tuples sort, whatever order they came in."""
    shuffled = DT6_FACES[np.random.default_rng(3).permutation(len(DT6))]
    for convention, g in DT6_GRAPHS.items():
        _assert_same_graph(build_beating_graph(shuffled, convention), g)


def test_singleton_space_no_edges():
    g = build_beating_graph([parse_die("333336")], "majority")
    assert g.beats.shape == (1, 1)
    assert not g.beats.any()


def test_seven_cycle_edges_present_both_conventions():
    for convention, g in DT6_GRAPHS.items():
        for a, b in zip(SEVEN_CYCLE, SEVEN_CYCLE[1:] + SEVEN_CYCLE[:1]):
            assert _edge(g, a, b), (die_label(a), die_label(b), convention)


def test_three_cycle_example_edge():
    # An edge used by the published 3-cycle: 114555 → 333345.
    x, y = parse_die("114555"), parse_die("333345")
    assert _counts(DT6_GRAPHS["strict"], x, y) == WinCount(wins=19, ties=4, losses=13)
    assert _edge(DT6_GRAPHS["strict"], x, y)


@st.composite
def small_spaces(draw):
    """A space of 1-6 sides, faces up to 1-8, a feasible sum, and at most 8
    of its rows (the cycle oracle is exponential)."""
    sides = draw(st.integers(1, 6))
    max_face = draw(st.integers(1, 8))
    space = enumerate_dice(sides, max_face, draw(st.integers(sides, sides * max_face)))
    rows = draw(st.lists(st.integers(0, len(space) - 1), min_size=1, max_size=8, unique=True))
    return space, rows


@settings(max_examples=60, deadline=None)
@given(small_spaces(), st.sampled_from(CONVENTIONS))
def test_graph_matrices_match_per_pair_loops(space_and_dice, convention):
    """wins, beats, the non-transitive subset and the round-trip hop counts
    equal the per-pair loops and the exhaustive cycle search."""
    space, rows = space_and_dice
    full = build_beating_graph(space, convention)
    g = induced_subgraph(full, rows)
    nodes = dice_tuples(g.faces)
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert g.wins[i, j] == beating_probability(x, y).wins
            assert g.beats[i, j] == beats_loop(x, y, convention)
    assert set(_ntd(g)) == cycle_nodes_brute(nodes, successors(g))
    # The whole space's non-transitive dice, as the pipeline takes them.
    sub = induced_subgraph(full, non_transitive_subset(full))
    try:
        D = shortest_path_matrix(sub)
    except UnreachableNodeError:
        with pytest.raises(KeyError):  # the loop's hop table lacks the pair
            shortest_path_matrix_loop(sub)
    else:
        assert np.array_equal(D, shortest_path_matrix_loop(sub))
# ------------------------------------------------------ non-transitive sets

def _manual_graph(nodes, edges):
    """A graph with exactly these edges, each one win of a one-faced die."""
    beats = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for x, y in edges:
        beats[nodes.index(x), nodes.index(y)] = True
    return BeatingGraph(np.array(nodes, dtype=np.int64), beats.astype(np.int64), beats, "majority")


def test_ntd_acyclic_graph_empty():
    a, b, c = (1,), (2,), (3,)
    g = _manual_graph((a, b, c), [(a, b), (b, c), (a, c)])
    assert _ntd(g) == ()


def test_ntd_three_cycle():
    a, b, c = (1,), (2,), (3,)
    g = _manual_graph((a, b, c), [(a, b), (b, c), (c, a)])
    assert _ntd(g) == (a, b, c)


def test_ntd_strict_is_the_published_ten():
    g = build_beating_graph(DT6_FACES, "strict")
    assert _ntd(g) == tuple(sorted(TEN))
    assert non_transitive_subset(g).tolist() == _rows(TEN)  # ascending rows


def test_ntd_majority_pinned():
    # Frozen regression: under majority every DT(6) die except the standard
    # die lies on a cycle.
    g = build_beating_graph(DT6_FACES, "majority")
    ntd = _ntd(g)
    assert len(ntd) == 31
    assert set(DT6) - set(ntd) == {(1, 2, 3, 4, 5, 6)}
    standard = DT6.index((1, 2, 3, 4, 5, 6))
    assert non_transitive_subset(g).tolist() == [i for i in range(32) if i != standard]


def test_ntd_matches_brute_force_cycle_search():
    rng = random.Random(99)
    for convention in ("strict", "majority"):
        full = build_beating_graph(DT6_FACES, convention)
        for _ in range(12):
            rows = rng.sample(range(len(DT6)), rng.randint(2, 8))
            g = induced_subgraph(full, rows)
            expected = cycle_nodes_brute(dice_tuples(g.faces), successors(g))
            assert set(_ntd(g)) == expected


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_induced_subgraph_of_dt6_rows_is_their_graph(convention):
    """All of DT(6), its non-transitive rows and no rows at all: slicing
    the graph by rows equals building the graph of those rows."""
    g = DT6_GRAPHS[convention]
    for rows in (np.arange(len(DT6)), non_transitive_subset(g), np.arange(0)):
        _assert_same_graph(induced_subgraph(g, rows), build_beating_graph(g.faces[rows], convention))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 31), unique=True).map(sorted),
    st.sampled_from(CONVENTIONS),
)
def test_induced_subgraph_of_any_rows_is_their_graph(rows, convention):
    g = DT6_GRAPHS[convention]
    _assert_same_graph(induced_subgraph(g, rows), build_beating_graph(g.faces[rows], convention))


# -------------------------------------------------------------- longest cycle

def test_longest_cycle_triangle():
    a, b, c = (1,), (2,), (3,)
    g = _manual_graph((a, b, c), [(a, b), (b, c), (c, a)])
    assert longest_cycle(g) == [a, b, c]


def test_longest_cycle_acyclic_empty():
    a, b = (1,), (2,)
    g = _manual_graph((a, b), [(a, b)])
    assert longest_cycle(g) == []


def test_longest_cycle_on_published_ten_strict():
    """The induced strict-convention subgraph on the ten published dice has
    a maximum simple cycle of length 7; exhaustive search returns the
    first one in node order."""
    g = induced_subgraph(DT6_GRAPHS["strict"], _rows(TEN))
    cycle = longest_cycle(g)
    assert len(cycle) == 7
    assert cycle == [
        parse_die(s)
        for s in ("112566", "144444", "333345", "222366", "114555", "234444", "333336")
    ]
    # Every consecutive pair really is an edge.
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert _edge(g, a, b)


def test_longest_cycle_on_published_ten_majority():
    # Frozen regression: majority adds edges, and the same ten nodes then
    # carry a Hamiltonian (length-10) cycle.
    g = induced_subgraph(DT6_GRAPHS["majority"], _rows(TEN))
    assert len(longest_cycle(g)) == 10


# -------------------------------------------------------------- shortest path

def test_shortest_path_self_zero():
    g = induced_subgraph(DT6_GRAPHS["strict"], _rows(TEN))
    assert not shortest_path_matrix(g).diagonal().any()


def test_shortest_path_three_cycle():
    a, b, c = (1,), (2,), (3,)
    g = _manual_graph((a, b, c), [(a, b), (b, c), (c, a)])
    assert shortest_path_matrix(g).tolist() == [[0, 3, 3], [3, 0, 3], [3, 3, 0]]  # 1 + 2


def test_shortest_path_unreachable():
    x, y = parse_die("115555"), parse_die("344444")
    g = _manual_graph((x, y), [(x, y)])
    with pytest.raises(UnreachableNodeError, match="344444 -> 115555"):
        shortest_path_matrix(g)


def test_shortest_path_matrix_strict_ten_pinned():
    """Frozen all-pairs round-trip hop counts on the strict graph."""
    g = induced_subgraph(DT6_GRAPHS["strict"], _rows(TEN))
    D = shortest_path_matrix(g)
    labels = [die_label(d) for d in dice_tuples(g.faces)]
    assert labels == sorted(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    assert D[idx["112566"]][idx["114555"]] == 5
    assert D[idx["112566"]][idx["144444"]] == 3
    assert D[idx["112566"]][idx["333444"]] == 8
    assert D[idx["333336"]][idx["234444"]] == 4
    for i in range(len(D)):
        assert D[i][i] == 0
        for j in range(len(D)):
            assert D[i][j] == D[j][i]


def test_shortest_path_metric_axioms_exact():
    """On a strongly connected graph the round-trip distance is a metric;
    integer arithmetic means the axioms hold with zero tolerance."""
    g = induced_subgraph(DT6_GRAPHS["strict"], _rows(TEN))
    m = DistanceMatrix(entries=np.array(shortest_path_matrix(g), dtype=float))
    assert validate_pseudometric(m, tol=0.0).ok


# ------------------------------------------------------------- similarity

def test_similarity_degenerate_two_nodes():
    assert similarity_matrix([[0, 1], [1, 0]]).tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_similarity_identical_neighborhood_pair():
    # Columns equal except at the two dropped positions → distance 0.
    D = [
        [0, 2, 3, 4],
        [2, 0, 3, 4],
        [3, 3, 0, 5],
        [4, 4, 5, 0],
    ]
    sim = similarity_matrix(D)
    assert sim[0][1] == 0.0
    assert sim[0][1] == sim[1][0]
    for i in range(4):
        assert sim[i][i] == 0.0


def test_similar_trio_distance_zero():
    """112566, 122556 and 222555 relate identically to the other dice, so
    their similarity distances vanish exactly."""
    g = induced_subgraph(DT6_GRAPHS["strict"], _rows(TEN))
    m = similarity_distance_matrix(g)
    idx = {lab: i for i, lab in enumerate(m.labels)}
    trio = ["112566", "122556", "222555"]
    for a in trio:
        for b in trio:
            assert m.entries[idx[a], idx[b]] == 0.0
    # and their in/out neighborhoods coincide once the trio is masked out
    pos = [dice_tuples(g.faces).index(parse_die(s)) for s in trio]
    rest = [k for k in range(g.n) if k not in pos]
    for a in pos:
        for b in pos:
            assert np.array_equal(g.beats[a, rest], g.beats[b, rest])  # successors
            assert np.array_equal(g.beats[rest, a], g.beats[rest, b])  # predecessors


def test_similarity_pinned_values():
    g = induced_subgraph(DT6_GRAPHS["strict"], _rows(TEN))
    m = similarity_distance_matrix(g)
    idx = {lab: i for i, lab in enumerate(m.labels)}
    assert m.entries[idx["112566"], idx["114555"]] == 7.0
    assert m.entries[idx["112566"], idx["333444"]] == math.sqrt(34)
    assert validate_pseudometric(m, tol=1e-9).ok


# ------------------------------------------- foliation, symmetry, distances

def test_foliation_values():
    assert foliation((1, 2, 3, 4, 5, 6)) == 0
    assert foliation(parse_die("333336")) == 2
    assert foliation(parse_die("222555")) == 1 + 1


def test_foliation_rejects_other_spaces():
    """The first die outside the domain is named; 5-sided dice all are."""
    for faces, named in (
        ([(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 7)], (1, 2, 3, 4, 5, 7)),
        ([(1, 2, 3, 4, 5, 6), (0, 2, 3, 4, 5, 6)], (0, 2, 3, 4, 5, 6)),
        ([(1, 2, 3, 4, 5), (1, 2, 3, 4, 6)], (1, 2, 3, 4, 5)),
    ):
        want = r"6-sided dice with faces in \[1, 6\], got " + re.escape(str(named))
        with pytest.raises(ValueError, match=want):
            foliation_symmetry_distance_matrix(np.array(faces, dtype=np.int64))


def test_symmetry_opposite_standard_die():
    assert symmetry((1, 2, 3, 4, 5, 6), "opposite") == 0


def test_symmetry_literal_standard_die():
    # Pairs (1,5), (2,4), (3,3): each term (−1/2)², summing to 3/4 exactly.
    assert symmetry((1, 2, 3, 4, 5, 6), "literal") == Fraction(3, 4)


def test_symmetry_opposite_all_sevens():
    assert symmetry((3, 3, 3, 4, 4, 4), "opposite") == 0


def test_symmetry_unknown_pairing():
    with pytest.raises(ValueError, match="pairing"):
        foliation_symmetry_distance_matrix(np.array([(1, 2, 3, 4, 5, 6)]), "diagonal")


def test_symmetry_is_exact_rational():
    value = symmetry((1, 1, 2, 5, 6, 6), "literal")
    assert isinstance(value, Fraction)
    # ((1+6)/2 − 7/2)² + ((1+5)/2 − 7/2)² + ((2+2)/2 − 7/2)² = 0 + 1/4 + 9/4
    assert value == Fraction(10, 4)


def test_foliation_symmetry_distance_self_zero():
    assert foliation_symmetry_distance(parse_die("333336"), parse_die("333336")) == 0


def test_foliation_symmetry_distance_hand_value():
    # f([1..6]) = 0, s = 0 under opposite pairing; f([3,3,3,4,4,4]) = 2+2 = 4,
    # s = 0.  Hand evaluation of the defining formulas gives |0 − 4| = 4.
    d = foliation_symmetry_distance((1, 2, 3, 4, 5, 6), (3, 3, 3, 4, 4, 4), "opposite")
    assert d == 4


def test_foliation_symmetry_is_pseudometric_with_degeneracy():
    # Distinct dice with equal s + f sit at distance 0.
    x, y = parse_die("112566"), parse_die("122556")
    assert x != y
    assert foliation_symmetry_distance(x, y, "literal") == 0


def test_euclidean_dice_values():
    assert euclidean_dice((1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 2)) == 0.0
    assert euclidean_dice((1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 3)) == 1.0
    assert euclidean_dice((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)[1:] + (1,)) == math.sqrt(30)


# -------------------------------------------------------- distance matrices

def test_dice_distance_matrices_are_valid():
    g = induced_subgraph(DT6_GRAPHS["strict"], _rows(TEN))
    for m in (
        similarity_distance_matrix(g),
        euclidean_dice_distance_matrix(g.faces),
        foliation_symmetry_distance_matrix(g.faces, "literal"),
        foliation_symmetry_distance_matrix(g.faces, "opposite"),
    ):
        assert m.labels == tuple(die_label(d) for d in dice_tuples(g.faces))
        assert validate_pseudometric(m, tol=1e-9).ok


@pytest.mark.parametrize("convention", ["strict", "majority"])
def test_dice_matrices_match_per_pair_loops(convention):
    """The array builders equal the per-pair loops bit for bit on the strict
    (10 dice) and majority (31 dice) non-transitive subsets of DT(6)."""
    g = build_beating_graph(DT6_FACES, convention)
    sub = induced_subgraph(g, non_transitive_subset(g))
    assert sub.n == {"strict": 10, "majority": 31}[convention]
    nodes = dice_tuples(sub.faces)
    D = shortest_path_matrix(sub)
    assert np.array_equal(D, shortest_path_matrix_loop(sub))
    assert np.array_equal(similarity_matrix(D), similarity_matrix_loop(D))
    assert np.array_equal(
        similarity_distance_matrix(sub).entries, similarity_matrix_loop(D)
    )
    assert np.array_equal(
        euclidean_dice_distance_matrix(sub.faces).entries,
        pairwise_loop(nodes, euclidean_dice),
    )
    for pairing in ("literal", "opposite"):
        assert np.array_equal(
            foliation_symmetry_distance_matrix(sub.faces, pairing).entries,
            foliation_symmetry_matrix_loop(nodes, pairing),
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(1, 6), min_size=6, max_size=6).map(lambda f: tuple(sorted(f))),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from(["literal", "opposite"]),
)
def test_foliation_symmetry_matches_fraction_loop(dice, pairing):
    """The integer closed form equals the per-pair Fraction reference on any
    canonical 6-sided dice with faces in 1..6, whatever their sum, repeats
    included."""
    np.testing.assert_array_equal(
        foliation_symmetry_distance_matrix(np.array(dice, dtype=np.int64), pairing).entries,
        foliation_symmetry_matrix_loop(dice, pairing),
        strict=True,
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.sampled_from([np.int64, np.float64]))
def test_similarity_matches_per_pair_loop(n, seed, dtype):
    """The Gram-matrix identity equals the per-pair loop on random integer
    matrices, neither symmetric nor zero on the diagonal, as int64 and float64."""
    D = np.random.default_rng(seed).integers(0, 2 * n, size=(n, n), endpoint=True).astype(dtype)
    np.testing.assert_array_equal(similarity_matrix(D), similarity_matrix_loop(D), strict=True)


def test_shortest_path_matrix_names_unreachable_pair():
    x, y, z = parse_die("115555"), parse_die("344444"), parse_die("333336")
    g = _manual_graph((x, y, z), [(x, y), (y, x), (y, z)])
    with pytest.raises(UnreachableNodeError, match="333336 -> 115555"):
        shortest_path_matrix(g)


# --------------------------------------------------------------------- DOT

def test_to_dot_deterministic_with_labels():
    x, y = parse_die("115555"), parse_die("344444")
    g = _graph([x, y])
    dot = to_dot(g)
    assert dot == to_dot(g)
    assert '"115555" -> "344444" [label="24/36"];' in dot
    assert dot.startswith("digraph beating {") and dot.endswith("\n}")
