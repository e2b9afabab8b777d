"""Persistence pairs over Z/2 and barcode extraction.

The pipeline pairs simplices without the boundary matrix, on the
filtration's per-dimension arrays.  H0 comes from a union-find
(:func:`joins`) over the rows of ``Filtration.vertices[1]``, the edges in
filtration order, which pairs each edge that joins two components with the
younger one.  Each higher dimension k below the top stored one
reduces the coboundary columns of its k-simplices, latest first, with
clearing: a simplex that killed a class in dimension k − 1 would reduce
to zero, so its column is skipped (de Silva, Morozov & Vejdemo-Johansson
2011; Bauer 2021, *Ripser*).  The coboundary columns are the transpose of
``Filtration.facets[k + 1]``, the facet rows the clique expansion
recorded, so no facet is searched for here: one sort of 32- or 64-bit
keys, each a facet row packed above the row of its coface.  Most columns are
apparent: the simplex is the latest facet of its earliest coface, and the
two are a pair (Bauer 2021).  Array operations pair all of those at once
and keep them as arrays, and only the other columns enter the reduction
loop.  Working mod 2 drops orientation signs (and any torsion).

A top dimension k at the cap is stored when dimension k − 1 has at most
``filtration.COUNT_TOP_ABOVE`` rows, and dimension k − 1 is then paired
through its coboundary columns like the rest.  Over more rows the top is
counted and has no rows, so dimension k − 1 is paired
against implicit cofaces by :func:`ripsbars.cofaces.top_pairs`: the
killers in dimension k are named by their vertices and by the first row of
their birth in the counted births.  :func:`extract_pairs` then takes the
top's open bars as runs, one per birth: its count less its killers.

The total boundary matrix over ``Filtration.simplices`` and its
left-to-right reduction stay as the reference the tests compare these pairs
against, and as the replay that counts column additions in the benchmark's
tracer: a zero reduced column births a class, a nonzero one kills the class
born at its lowest 1.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import fileio
from .cofaces import top_pairs
from .fileio import BARCODE_META_KEY, ParseError, fmt
from .filtration import Filtration


class SparseBinaryMatrix(NamedTuple):
    """Column-major Z/2 matrix over positions in ``Filtration.simplices``;
    each column is a sorted list of row indices."""

    columns: List[List[int]]


def total_boundary_matrix(f: Filtration) -> SparseBinaryMatrix:
    """Column j holds the positions of simplex j's facets, ascending."""
    index = {v: j for j, (_, _, v) in enumerate(f.simplices)}
    columns = [
        sorted(index[v[:i] + v[i + 1:]] for i in range(len(v))) if dim else []
        for _, dim, v in f.simplices
    ]
    return SparseBinaryMatrix(columns=columns)


def _xor_sorted(a: List[int], b: List[int]) -> List[int]:
    """Symmetric difference of two sorted index lists, sorted."""
    return sorted(set(a).symmetric_difference(b))


def reduce_matrix(
    m: SparseBinaryMatrix, record: bool = False
) -> Tuple[SparseBinaryMatrix, Optional[List[Tuple[int, int]]]]:
    """Left-to-right column reduction over Z/2.

    Only earlier columns are ever added into later ones (no swaps), so the
    pairing read off the result is the persistence pairing.  When ``record``
    is set, the returned operation log lists each (source, target) addition,
    allowing R = M·V verification by replay.
    """
    cols = [list(c) for c in m.columns]
    owner: Dict[int, int] = {}
    ops: Optional[List[Tuple[int, int]]] = [] if record else None
    for j in range(len(cols)):
        col = cols[j]
        while col:
            low = col[-1]
            k = owner.get(low)
            if k is None:
                owner[low] = j
                break
            col = _xor_sorted(col, cols[k])
            if ops is not None:
                ops.append((k, j))
        cols[j] = col
    return SparseBinaryMatrix(columns=cols), ops


class Bar(NamedTuple):
    """One persistence interval [birth, death); open bars never die.  Bars
    sort by their fields: on a tie, a closed bar before an open one."""

    dim: int
    birth: float
    death: float
    open: bool = False


@dataclass(frozen=True, eq=False)  # __eq__ compares the arrays by bits
class Barcode:
    """All bars of one pipeline run plus the metadata to interpret them.

    ``dim``, ``birth``, ``death`` and ``open`` are aligned arrays, and
    ``count``, when given, says how many equal bars each row stands for
    (at least 1; by default each row is one bar).  The rows are given in
    any order.  The constructor merges them into maximal runs of equal
    bars, told apart by bit pattern (so -0.0 and +0.0 make two runs), and
    sorts the runs: first the ``n_bars`` runs of bars, then the runs of
    zero-length pairs (closed rows with birth = death as stored, from
    simultaneous arrivals), which stay out of statistics and plots, each
    part by (dim, birth, death, open), -0.0 before +0.0 (no birth or death
    is below zero).  So the same bars give the same runs whatever their
    order and grouping, and a barcode read back from its file equals the
    one written.  ``==`` compares births and deaths by bit pattern too, as
    the runs are told apart: a barcode with a -0.0 differs from one with
    +0.0 in its place, though their :class:`Bar` records compare equal.
    ``n_bars`` counts runs, not bars: the bars number
    ``count[:n_bars].sum()``.  ``bars`` and ``zero_length`` are read-only
    views of the two parts as :class:`Bar` records, each run repeated
    ``count`` times, derived on first access; the pipeline never builds
    them.  ``span_end`` is the last threshold actually processed, in the
    same scale as the bars, and always a float: a barcode file may give it
    as a JSON integer.
    """

    dim: np.ndarray
    birth: np.ndarray
    death: np.ndarray
    open: np.ndarray
    metric: str
    max_dim: int
    n_points: int
    normalized: bool
    span_end: float
    count: Optional[np.ndarray] = None
    n_bars: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "span_end", float(self.span_end))
        if self.count is not None and self.count.min(initial=1) < 1:
            raise ValueError("every row of a barcode stands for at least one bar")
        zero = ~self.open & (self.birth == self.death)
        # No bar is below zero, where the bits of a float64 sort as its
        # value does, -0.0 first: so the bits sort the rows, and equal
        # keys are equal bits.
        bits = [np.asarray(x, dtype=np.float64).view(np.int64) for x in (self.death, self.birth)]
        keys = (self.open, *bits, self.dim)
        order = np.lexsort(keys + (zero,))
        keys = [x[order] for x in keys]
        starts = np.empty(len(order), dtype=bool)  # where a run of equal rows starts
        starts[:1] = True
        np.not_equal(keys[0][1:], keys[0][:-1], out=starts[1:])
        for x in keys[1:]:
            starts[1:] |= x[1:] != x[:-1]
        starts = np.flatnonzero(starts)
        count = np.ones(len(order), dtype=np.intp) if self.count is None else self.count[order]
        if len(starts) < len(order):  # merge the runs
            keys = [x[starts] for x in keys]
            count = np.add.reduceat(count, starts)
        is_open, death, birth, dim = keys
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "birth", birth.view(np.float64))
        object.__setattr__(self, "death", death.view(np.float64))
        object.__setattr__(self, "open", is_open)
        object.__setattr__(self, "count", count)
        bars = len(order) - np.count_nonzero(zero)  # the rows before the zero-length ones
        object.__setattr__(self, "n_bars", int(starts.searchsorted(bars)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        def columns(bc: Barcode) -> List[object]:
            floats = ("birth", "death")
            rest = [getattr(bc, f.name) for f in fields(bc) if f.name not in floats]
            return [getattr(bc, name).view(np.int64) for name in floats] + rest

        return all(map(np.array_equal, columns(self), columns(other)))

    def _records(self, rows: slice) -> Tuple[Bar, ...]:
        count = self.count[rows]
        columns = (self.dim, self.birth, self.death, self.open)
        return tuple(map(Bar._make, zip(*(x[rows].repeat(count).tolist() for x in columns))))

    @cached_property
    def bars(self) -> Tuple[Bar, ...]:
        return self._records(slice(self.n_bars))

    @cached_property
    def zero_length(self) -> Tuple[Bar, ...]:
        return self._records(slice(self.n_bars, None))

    def top_dim(self) -> int:
        """Highest dimension holding at least one bar (-1 when empty)."""
        return int(self.dim[: self.n_bars].max(initial=-1))


def coboundaries(facets: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Coboundary columns of the ``m`` simplices one dimension below
    ``facets`` (a ``Filtration.facets`` array) as CSR arrays: column j is
    ``cofaces[ptr[j]:ptr[j + 1]]``, the rows of ``facets`` that hold j,
    ascending, in ``np.min_scalar_type(len(facets) - 1)``.

    It is the transpose of ``facets`` by one sort of packed keys: entry j
    of row r becomes ``j << b | r``, b the bit width of that dtype, in
    ``uint32`` when ``m << b`` fits and ``uint64`` otherwise.  A row holds
    each facet once, so the keys are distinct and any sort orders them as
    a stable sort of the entries would: by column, then by row.  Column j
    starts at the first key not below ``j << b``, a binary search of the
    sorted keys, and the cast of those keys to the cofaces' dtype keeps
    their low b bits, the rows."""
    rows = len(facets)
    coface = np.min_scalar_type(rows - 1)
    b = 8 * coface.itemsize
    key = np.uint32 if b + max(m, 1).bit_length() <= 32 else np.uint64
    keys = facets.astype(key)
    keys <<= key(b)
    keys |= np.arange(rows, dtype=key)[:, None]
    keys = keys.ravel()
    keys.sort()
    ptr = np.searchsorted(keys, np.arange(m + 1, dtype=key) << key(b))
    return ptr, keys.astype(coface)


def joins(n: int, edges: np.ndarray) -> np.ndarray:
    """The H0 pairs of ``n`` vertices and the (m, 2) ``edges`` in filtration
    order, a (2, p_0) int array: each vertex whose component an edge merged
    into an older one, over that edge's row in ``edges``.

    Components are named by their smallest vertex; an edge joining two of
    them ends the one with the larger name.  The scan stops as soon as the
    ``n`` points are connected, so no edge past that one is read.
    """
    parent = list(range(n))
    young: List[int] = []
    rows: List[int] = []
    for k, (u, v) in enumerate(edges.tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u < v:
                u, v = v, u
            parent[u] = v
            young.append(u)
            rows.append(k)
            if len(rows) == n - 1:
                break
    return np.array([young, rows], dtype=np.intp)


def persistence_pairs(f: Filtration) -> List[np.ndarray]:
    """Every finite pair of ``f``: per dimension k below the top one, a
    (2, p_k) int array of the rows in ``f.vertices[k]`` of the classes that
    die over the rows in ``f.vertices[k + 1]`` of the simplices that kill
    them.  When the top dimension is counted, not stored (the dimension
    below it has more than ``filtration.COUNT_TOP_ABOVE`` rows), each of
    its killers is the first row of its birth in ``f.births[k + 1]``
    instead, shared by the killers of that birth, and the array has k + 2
    more rows: the killers' vertices.

    H0 is :func:`joins` over the rows of ``f.vertices[1]``, in filtration
    order: the edge that merges a component into an older one kills the
    class born with its smallest vertex.  A k-simplex's coboundary column
    lists its (k+1)-cofaces in filtration order; its pivot is the earliest
    one, which kills the class the column was born with and clears that
    coface's own column in dimension k + 1.  A column whose simplex is the
    latest facet of its pivot is apparent, and owns that pivot unreduced:
    the column of a later simplex sums only columns of simplices later
    still, and none of those is a facet of the pivot.  The apparent
    columns are paired first, in one step, and stay arrays; the others are
    reduced latest first, and one becomes a list only when its pivot is
    already owned.  A pivot owned by an apparent column is owned by its
    latest facet.  A stored top dimension has no cofaces: it is the cap, or
    it is empty; the dimension below it is paired through
    :func:`coboundaries` like the rest.  The dimension below a counted one
    is paired by :func:`ripsbars.cofaces.top_pairs`.
    """
    pairs = [joins(f.n_points, f.vertices[1])] if len(f.vertices) > 1 else []
    for k in range(1, len(f.vertices) - 1):
        facets = f.facets[k + 1]
        ptr, cofaces = coboundaries(facets, len(f.vertices[k]))
        todo = ptr[1:] > ptr[:-1]
        todo[pairs[-1][1]] = False
        todo = np.flatnonzero(todo)[::-1]
        first = cofaces[ptr[todo]]
        # The latest facet of each pivot, reduced along the long axis.
        apparent = np.take(facets.T, first, axis=1).max(axis=0) == todo
        taken = np.zeros(len(facets), dtype=bool)  # the pivots of apparent columns
        taken[first[apparent]] = True
        owner: Dict[int, int] = {}  # the pivots of the reduced columns
        lists: Dict[int, Optional[List[int]]] = {}  # reduced columns; None: as built
        column = lambda j: lists.get(j) or cofaces[ptr[j]:ptr[j + 1]].tolist()
        rest = ~apparent
        for j, pivot in zip(todo[rest].tolist(), first[rest].tolist()):
            col = None
            while pivot in owner or taken[pivot]:
                other = owner[pivot] if pivot in owner else max(facets[pivot].tolist())
                col = _xor_sorted(col or column(j), column(other))
                if not col:
                    break
                pivot = col[0]
            else:
                owner[pivot] = j
                lists[j] = col
        pairs.append(np.concatenate(
            (np.stack((todo[apparent], first[apparent])),
             np.array([list(owner.values()), list(owner)], dtype=np.intp).reshape(2, -1)),
            axis=1,
        ))
    if len(f.births) > len(f.vertices):
        pairs.append(top_pairs(f, pairs[-1][1]))
    return pairs


def extract_pairs(
    pairs: List[np.ndarray], f: Filtration, normalize: bool = True, metric: str = ""
) -> Barcode:
    """Turn the pairs of :func:`persistence_pairs` into bars.

    A simplex that kills no class births one (a simplex kills at most
    one), which dies at its killer's birth or, unkilled, becomes an open
    bar: death is the last processed threshold raw, or exactly 1.0 after
    normalization (the right edge of the examined range).  Each stored
    simplex gives a row of count 1.  A counted top dimension gives one row
    per birth, its open bars: the simplices of that birth, less the killers
    born with it, counted from the births alone, so none of its bars is
    built one at a time.  Normalization divides births and deaths by the
    maximum distance of the source matrix.
    """
    divisor = 1.0
    if normalize:
        if f.max_distance <= 0.0:
            raise ValueError("cannot normalize: no strictly positive distance")
        divisor = f.max_distance
    # Every stored simplex of every dimension births a class, unless it kills one.
    stored = len(f.vertices)
    sizes = [len(born) for born in f.births[:stored]]
    starts = np.cumsum([0] + sizes).tolist()
    birth = np.concatenate(f.births[:stored])
    death = np.full(len(birth), np.nan)  # nan: the class never dies
    keep = np.ones(len(birth), dtype=bool)
    for k, (young, killer, *_) in enumerate(pairs):
        death[starts[k]:starts[k + 1]][young] = f.births[k + 1][killer]
        if k + 1 < stored:
            keep[starts[k + 1]:starts[k + 2]][killer] = False
            sizes[k + 1] -= len(killer)
    birth, death = birth[keep], death[keep]
    count = None  # a bar per row
    if len(f.births) > stored:  # the counted top: its births less its killers'
        top, thresholds = f.births[stored], np.array(f.thresholds)
        alive = np.diff(top.searchsorted(thresholds), append=len(top))
        alive -= np.bincount(
            thresholds.searchsorted(top[pairs[stored - 1][1]]), minlength=len(alive)
        )
        born = np.flatnonzero(alive)
        sizes.append(len(born))
        count = np.concatenate((np.ones(len(birth), dtype=np.intp), alive[born]))
        birth = np.concatenate((birth, thresholds[born]))
        death = np.concatenate((death, np.full(len(born), np.nan)))
    birth /= divisor
    death /= divisor
    is_open = np.isnan(death)
    death[is_open] = 1.0 if normalize else f.span_end
    return Barcode(
        dim=np.repeat(np.arange(len(sizes)), sizes),
        birth=birth,
        death=death,
        open=is_open,
        count=count,
        metric=metric,
        max_dim=f.max_dim,
        n_points=f.n_points,
        normalized=normalize,
        span_end=f.span_end / divisor,
    )


def barcode(f: Filtration, normalize: bool = True, metric: str = "") -> Barcode:
    """Convenience pipeline: persistence pairs → bars."""
    return extract_pairs(persistence_pairs(f), f, normalize=normalize, metric=metric)


BARCODE_HEADER = "dim,birth,death,open"

#: The most bar lines :func:`write_barcode_csv` joins into one string.  A
#: line holds two floats of at most 23 characters each, so a piece of them
#: stays under 64 KiB.
_PIECE_LINES = 1024

#: JSON type of each ``barcode-meta`` field: its name, and the Python types
#: ``json.loads`` returns for it.
_META_TYPES = {
    "metric": ("string", (str,)),
    "max_dim": ("integer", (int,)),
    "n_points": ("integer", (int,)),
    "normalized": ("boolean", (bool,)),
    "span_end": ("number", (int, float)),
}


def write_barcode_csv(
    path: str, bc: Barcode, config: Optional[Dict] = None
) -> None:
    """CSV with one bar per line; zero-length pairs included and marked by
    birth = death, so the reader can reconstruct the full object.

    Each run of the barcode is formatted once, and its line repeated by its
    ``count``.  The body is written in pieces of at most ``_PIECE_LINES``
    lines, cut at every multiple of that count, a run that crosses one
    split there, so no more than one piece of it is held as text at a
    time.  A body of at most ``_PIECE_LINES`` lines is one piece, and its
    parts are the runs."""
    lines = fileio.metadata_lines(config)
    meta = {key: getattr(bc, key) for key in _META_TYPES}
    lines.append(f"# {BARCODE_META_KEY} " + json.dumps(meta, sort_keys=True))
    lines.append(BARCODE_HEADER)
    # Each part is a run, or the piece of one between two cuts: the run it
    # lies in, its length, and the parts each piece of the body starts at.
    run, lengths = slice(None), bc.count
    n = int(lengths.sum())
    cuts = [0, len(lengths)] if n else [0]
    if n > _PIECE_LINES:
        # The line each part starts at.  The merge of two sorted arrays is
        # a stable sort's best case.
        ends = np.cumsum(lengths)
        starts = np.concatenate((ends - lengths, np.arange(0, n, _PIECE_LINES)))
        starts.sort(kind="stable")
        starts = starts[np.diff(starts, append=n) > 0]
        run = ends.searchsorted(starts, side="right")
        lengths = np.diff(starts, append=n)
        cuts = np.flatnonzero(starts % _PIECE_LINES == 0).tolist() + [len(starts)]
    births, deaths = fileio.fmt_array(np.stack((bc.birth[run], bc.death[run]))).tolist()
    runs = (
        bc.dim[run].tolist(), births, deaths, bc.open[run].astype(np.int8).tolist(),
        lengths.tolist(),
    )
    pieces = (  # write_text ends each with the newline it drops
        "".join([
            f"{dim},{birth},{death},{is_open}\n" * count
            for dim, birth, death, is_open, count in zip(*(x[a:b] for x in runs))
        ])[:-1]
        for a, b in zip(cuts, cuts[1:])
    )
    fileio.write_text(path, itertools.chain(lines, pieces))


def read_barcode_csv(path: str) -> Barcode:
    """Parse a barcode CSV, refusing what no pipeline run writes: a missing
    ``barcode-meta`` line, a missing or mistyped field in it, a ``max_dim``
    or ``n_points`` outside [0, 2**63), and bars with ``dim < 0``, a dim
    above the meta ``max_dim`` or not below its ``n_points`` (a k-simplex
    has k + 1 vertices), ``birth < 0``, ``death < birth``, in a normalized
    barcode ``death > 1``, or an open bar that does not die at the right
    edge (1 when normalized, else the meta ``span_end``).  Meta keys outside
    ``_META_TYPES`` are ignored.  The constructor gets one row per bar
    line and merges equal bars into runs."""
    lines = fileio.read_lines(path)
    header = fileio.parse_metadata(path, lines)
    if BARCODE_META_KEY not in header:
        raise ParseError(path, 1, f"no '# {BARCODE_META_KEY}' line found")
    meta = header[BARCODE_META_KEY]
    at = header["lines"][BARCODE_META_KEY]
    for key, (kind, types) in _META_TYPES.items():
        got = meta.get(key)
        if type(got) not in types:
            message = f"{BARCODE_META_KEY} {key!r} must be a JSON {kind}, got {got!r}"
            raise ParseError(path, at, message)
    for key in ("max_dim", "n_points"):
        if not 0 <= meta[key] < 2**63:
            raise ParseError(path, at, f"{BARCODE_META_KEY} {key!r} out of range: {meta[key]}")
    normalized = meta["normalized"]
    open_end = 1.0 if normalized else meta["span_end"]
    for start, text in fileio.data_lines(lines):
        if text != BARCODE_HEADER:
            raise ParseError(path, start, f"expected header {BARCODE_HEADER!r}")
        break
    else:
        raise ParseError(path, len(lines) or 1, "no barcode header found")
    # A row's verdict depends only on its line and the meta, so each distinct
    # line is checked once.  dict.fromkeys keeps them in order of first
    # occurrence, so each one's first line is found by searching on from the
    # last, and the first bad line of the file is refused at its own number.
    body = lines[start:]
    row_of: Dict[str, int] = {}  # each distinct line: its row in ``rows``, -1 if blank or comment
    rows: List[Tuple[int, float, float, bool]] = []
    pos = 0
    for raw in dict.fromkeys(body):
        pos = body.index(raw, pos)
        lineno = start + 1 + pos
        text = raw.strip()
        if not text or text.startswith("#"):
            row_of[raw] = -1
            continue
        parts = text.split(",")
        if len(parts) != 4:
            raise ParseError(path, lineno, f"expected 4 fields, got {len(parts)}")
        try:
            dim = int(parts[0])
            is_open = {"0": False, "1": True}[parts[3].strip()]
        except (ValueError, KeyError):
            raise ParseError(path, lineno, f"bad bar row: {text!r}") from None
        birth = fileio.parse_float(path, lineno, parts[1])
        death = fileio.parse_float(path, lineno, parts[2])
        if dim < 0 or not 0.0 <= birth <= death <= (1.0 if normalized else math.inf):
            rule = "0 <= birth <= death" + (" <= 1" if normalized else "")
            raise ParseError(path, lineno, f"need dim >= 0 and {rule}, got {text!r}")
        if dim > meta["max_dim"]:
            raise ParseError(path, lineno, f"dim above max_dim {meta['max_dim']}: {text!r}")
        if dim >= meta["n_points"]:
            message = f"dim not below n_points {meta['n_points']}: {text!r}"
            raise ParseError(path, lineno, message)
        if is_open and death != open_end:
            raise ParseError(path, lineno, f"open bar must die at {fmt(open_end)}: {text!r}")
        row_of[raw] = len(rows)
        rows.append((dim, birth, death, is_open))
    order = np.fromiter(map(row_of.__getitem__, body), dtype=np.intp, count=len(body))
    table = np.array(rows, dtype=[("dim", int), ("birth", float), ("death", float), ("open", bool)])
    table = table[order[order >= 0]]
    return Barcode(
        dim=table["dim"],
        birth=table["birth"],
        death=table["death"],
        open=table["open"],
        **{key: meta[key] for key in _META_TYPES},
    )
