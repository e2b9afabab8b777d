"""Persistence pairs over Z/2 and barcode extraction.

The pipeline pairs simplices without the boundary matrix, on the
filtration's per-dimension arrays.  H0 comes from the filtration itself:
``Filtration.merges``, found by the union-find that also decides where a
stopped filtration ends, pairs each edge that joins two components with
the younger one.  Each higher dimension k below the top stored one
reduces the coboundary columns of its k-simplices, latest first, with
clearing: a simplex that killed a class in dimension k − 1 would reduce
to zero, so its column is skipped (de Silva, Morozov & Vejdemo-Johansson
2011; Bauer 2021, *Ripser*).  The coboundary columns are the transpose of
``Filtration.facets[k + 1]``, the facet rows the clique expansion
recorded, so no facet is searched for here.  Working mod 2 drops
orientation signs (and any torsion).

The total boundary matrix over ``Filtration.simplices`` and its
left-to-right reduction stay as the reference the tests compare these pairs
against, and as the replay that counts column additions in the benchmark's
tracer: a zero reduced column births a class, a nonzero one kills the class
born at its lowest 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import fileio
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


@dataclass(frozen=True, eq=False)  # __eq__ compares the arrays by value
class Barcode:
    """All bars of one pipeline run plus the metadata to interpret them.

    ``dim``, ``birth``, ``death`` and ``open`` are aligned arrays with one
    row per bar, given in any order.  The constructor sorts them: first the
    ``n_bars`` bars, then the zero-length pairs (closed rows with birth =
    death as stored, from simultaneous arrivals), which stay out of
    statistics and plots, each part by (dim, birth, death, open).  So a
    barcode read back from its file equals the one written, whatever the
    row order.  ``bars`` and ``zero_length`` are read-only
    views of the two parts as :class:`Bar` records, derived on first access;
    the pipeline never builds them.  ``span_end`` is the last threshold
    actually processed, in the same scale as the bars.
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
    n_bars: int = field(init=False)

    def __post_init__(self) -> None:
        zero = ~self.open & (self.birth == self.death)
        order = np.lexsort((self.open, self.death, self.birth, self.dim, zero))
        for name in ("dim", "birth", "death", "open"):
            object.__setattr__(self, name, getattr(self, name)[order])
        object.__setattr__(self, "n_bars", int(np.count_nonzero(~zero)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def _records(self, rows: slice) -> Tuple[Bar, ...]:
        columns = (self.dim, self.birth, self.death, self.open)
        return tuple(map(Bar._make, zip(*(x[rows].tolist() for x in columns))))

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
    ascending.  It is the transpose of ``facets``."""
    flat = facets.ravel()
    ptr = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=m))))
    cofaces = np.argsort(flat, kind="stable")
    cofaces //= facets.shape[1]
    return ptr, cofaces


def persistence_pairs(f: Filtration) -> List[np.ndarray]:
    """Every finite pair of ``f``: per stored dimension k below the top one,
    a (2, p_k) int array of the rows in ``f.vertices[k]`` of the classes that
    die over the rows in ``f.vertices[k + 1]`` of the simplices that kill
    them.

    H0 is ``f.merges``, computed once when the filtration was built: the
    edge that merges a component into an older one kills the class born
    with its smallest vertex.  A k-simplex's coboundary column
    lists its (k+1)-cofaces in filtration order; its pivot is the earliest
    one, which kills the class the column was born with and clears that
    coface's own column in dimension k + 1.  Columns are reduced latest
    first, and one becomes a list only when its pivot is already owned.
    The top stored dimension has no cofaces: it is the cap, or it is empty.
    """
    pairs = [f.merges] if len(f.vertices) > 1 else []
    for k in range(1, len(f.vertices) - 1):
        ptr, cofaces = coboundaries(f.facets[k + 1], len(f.vertices[k]))
        todo = ptr[1:] > ptr[:-1]
        todo[pairs[-1][1]] = False
        todo = np.flatnonzero(todo)[::-1]
        owner: Dict[int, int] = {}
        lists: Dict[int, Optional[List[int]]] = {}  # reduced columns; None: as built
        column = lambda j: lists.get(j) or cofaces[ptr[j]:ptr[j + 1]].tolist()
        for j, pivot in zip(todo.tolist(), cofaces[ptr[todo]].tolist()):
            col = None
            while pivot in owner:
                col = _xor_sorted(col or column(j), column(owner[pivot]))
                if not col:
                    break
                pivot = col[0]
            else:
                owner[pivot] = j
                lists[j] = col
        pairs.append(np.array([list(owner.values()), list(owner)], dtype=np.intp))
    return pairs


def extract_pairs(
    pairs: List[np.ndarray], f: Filtration, normalize: bool = True, metric: str = ""
) -> Barcode:
    """Turn the pairs of :func:`persistence_pairs` into bars.

    A simplex that kills no class births one, which dies at its killer's
    birth or, unkilled, becomes an open bar: death is the last processed
    threshold raw, or exactly 1.0 after normalization (the right edge of
    the examined range).  Normalization divides births and deaths by the
    maximum distance of the source matrix.
    """
    divisor = 1.0
    if normalize:
        if f.max_distance <= 0.0:
            raise ValueError("cannot normalize: no strictly positive distance")
        divisor = f.max_distance
    columns = []
    for k, born in enumerate(f.births):
        death = np.full(len(born), np.nan)  # nan: the class never dies
        if k < len(pairs):
            death[pairs[k][0]] = f.births[k + 1][pairs[k][1]]
        killers = pairs[k - 1][1] if k else []
        born, death = np.delete(born, killers), np.delete(death, killers)
        columns.append((np.full(len(born), k), born, death))
    dim, birth, death = map(np.concatenate, zip(*columns))
    is_open = np.isnan(death)
    return Barcode(
        dim=dim,
        birth=birth / divisor,
        death=np.where(is_open, 1.0 if normalize else f.span_end, death / divisor),
        open=is_open,
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


def write_barcode_csv(
    path: str, bc: Barcode, config: Optional[Dict] = None
) -> None:
    """CSV with one bar per line; zero-length pairs included and marked by
    birth = death, so the reader can reconstruct the full object.

    Each distinct value is formatted once (told apart by bit pattern, so
    -0.0 keeps its sign), and each run of equal bars, which a sorted barcode
    of few distinct values is made of, becomes one line repeated."""
    lines = fileio.metadata_lines(config)
    meta = {
        "metric": bc.metric,
        "max_dim": bc.max_dim,
        "n_points": bc.n_points,
        "normalized": bc.normalized,
        "span_end": bc.span_end,
    }
    lines.append(f"# {BARCODE_META_KEY} " + json.dumps(meta, sort_keys=True))
    lines.append(BARCODE_HEADER)
    n = len(bc.dim)
    values = np.concatenate((bc.birth, bc.death), dtype=np.float64)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    text = [fmt(x) for x in bits.view(np.float64).tolist()]
    row = (bc.dim, index[:n], index[n:], bc.open)
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.logical_or.reduce([x[1:] != x[:-1] for x in row])
    starts = np.flatnonzero(starts)
    runs = [
        f"{dim},{text[birth]},{text[death]},{int(is_open)}"
        for dim, birth, death, is_open in zip(*(x[starts].tolist() for x in row))
    ]
    lines.extend(np.repeat(np.array(runs, dtype=object), np.diff(starts, append=n)).tolist())
    fileio.write_text(path, lines)


#: JSON type of each ``barcode-meta`` field: its name, and the Python types
#: ``json.loads`` returns for it.
_META_TYPES = {
    "metric": ("string", (str,)),
    "max_dim": ("integer", (int,)),
    "n_points": ("integer", (int,)),
    "normalized": ("boolean", (bool,)),
    "span_end": ("number", (int, float)),
}


def read_barcode_csv(path: str) -> Barcode:
    """Parse a barcode CSV, refusing what no pipeline run writes: a missing
    ``barcode-meta`` line, a missing or mistyped field in it, a ``max_dim``
    or ``n_points`` outside [0, 2**63), and bars with ``dim < 0``, a dim
    above the meta ``max_dim`` or not below its ``n_points`` (a k-simplex
    has k + 1 vertices), ``birth < 0``, ``death < birth``, in a normalized
    barcode ``death > 1``, or an open bar that does not die at the right
    edge (1 when normalized, else the meta ``span_end``)."""
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
    rows: List[Tuple[int, float, float, bool]] = []
    saw_header = False
    for lineno, text in fileio.data_lines(lines):
        if not saw_header:
            if text != BARCODE_HEADER:
                raise ParseError(path, lineno, f"expected header {BARCODE_HEADER!r}")
            saw_header = True
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
        rows.append((dim, birth, death, is_open))
    if not saw_header:
        raise ParseError(path, len(lines) or 1, "no barcode header found")
    table = np.array(rows, dtype=[("dim", int), ("birth", float), ("death", float), ("open", bool)])
    return Barcode(
        dim=table["dim"],
        birth=table["birth"],
        death=table["death"],
        open=table["open"],
        metric=meta["metric"],
        max_dim=meta["max_dim"],
        n_points=meta["n_points"],
        normalized=normalized,
        span_end=float(meta["span_end"]),
    )
