"""Persistence pairs over Z/2 and barcode extraction.

The pipeline pairs simplices without the boundary matrix.  H0 comes from
the filtration's union-find (``joins``) over the edges in filtration order:
an edge that joins two components kills the younger one.  Each higher
dimension k below the cap reduces the coboundary columns of its
k-simplices, latest first, with clearing: a simplex that killed a class in
dimension k − 1 would reduce to zero, so its column is skipped (de Silva,
Morozov & Vejdemo-Johansson 2011, *Dualities in persistent (co)homology*;
Bauer 2021, *Ripser*).  Working mod 2 drops orientation signs (and any
torsion).

The total boundary matrix and its left-to-right reduction stay as the
reference the tests compare these pairs against, and as the replay that
counts column additions in the benchmark's tracer.  Entry (i, j) of that
matrix is 1 exactly when simplex i is a face of simplex j; a zero reduced
column births a class, a nonzero one kills the class born at its lowest 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import fileio
from .fileio import BARCODE_META_KEY, ParseError, fmt
from .filtration import Filtration, joins


@dataclass
class SparseBinaryMatrix:
    """Column-major Z/2 matrix; each column is a sorted list of row indices.

    Row and column indices are positions in ``Filtration.simplices``.
    """

    columns: List[List[int]]


def total_boundary_matrix(f: Filtration) -> SparseBinaryMatrix:
    """Column j holds the faces of simplex j (empty for vertices)."""
    return SparseBinaryMatrix(columns=[list(s.faces) for s in f.simplices])


def _xor_sorted(a: List[int], b: List[int]) -> List[int]:
    """Symmetric difference of two sorted index lists."""
    out: List[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


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


@dataclass(frozen=True)
class Bar:
    """One persistence interval [birth, death); open bars never die."""

    dim: int
    birth: float
    death: float
    open: bool = False


@dataclass(frozen=True)
class Barcode:
    """All bars of one pipeline run plus the metadata to interpret them.

    ``zero_length`` holds the birth=death pairs from simultaneous arrivals;
    they are kept out of ``bars`` (and hence out of statistics and plots).
    ``span_end`` is the last threshold actually processed, in the same scale
    as the bars.
    """

    bars: Tuple[Bar, ...]
    zero_length: Tuple[Bar, ...]
    metric: str
    max_dim: int
    n_points: int
    normalized: bool
    span_end: float

    def in_dim(self, dim: int) -> Tuple[Bar, ...]:
        return tuple(b for b in self.bars if b.dim == dim)

    def top_dim(self) -> int:
        """Highest dimension holding at least one bar (-1 when empty)."""
        return max((b.dim for b in self.bars), default=-1)


def persistence_pairs(f: Filtration) -> Dict[int, int]:
    """Birth → death positions in ``f.simplices`` of every finite pair.

    H0 is :func:`~ripsbars.filtration.joins` over the edges in filtration
    order: vertices sit at positions 0 … n − 1, so the edge that merges a
    component into an older one kills the class born with its smallest
    vertex.  A k-simplex's coboundary column lists its (k+1)-cofaces in
    filtration order; its pivot is the earliest one, which kills the class
    the column was born with, and clears that coface's own column in
    dimension k + 1.  Top-dimension simplices have no cofaces.
    """
    by_dim: List[List[int]] = [[] for _ in range(f.max_dim + 2)]
    for j, s in enumerate(f.simplices):
        by_dim[s.dim].append(j)
    edges = by_dim[1]
    merged = joins(f.n_points, (f.simplices[e].vertices for e in edges))
    pairs = {v: edges[k] for v, k in merged.items()}
    cleared = set(pairs.values())
    for k in range(1, f.max_dim):
        cofaces: Dict[int, List[int]] = {j: [] for j in by_dim[k] if j not in cleared}
        for t in by_dim[k + 1]:
            for j in f.simplices[t].faces:
                if j in cofaces:
                    cofaces[j].append(t)
        owner: Dict[int, List[int]] = {}
        for j in reversed(by_dim[k]):
            col = cofaces.get(j)
            while col:
                other = owner.get(col[0])
                if other is None:
                    owner[col[0]] = col
                    pairs[j] = col[0]
                    break
                col = _xor_sorted(col, other)
        cleared = set(owner)
    return pairs


def extract_pairs(
    pairs: Dict[int, int],
    f: Filtration,
    normalize: bool = True,
    metric: str = "",
) -> Barcode:
    """Turn the birth → death positions ``pairs`` into bars.

    A simplex that is no pair's death births a class of its dimension.  The
    class born with σ_i dies when σ_{pairs[i]} arrives.  Unkilled classes
    become open bars: death is the last processed threshold raw, or exactly
    1.0 after normalization (open bars reach the right edge of the examined
    range).  Normalization divides births and deaths by the maximum distance
    of the source matrix.
    """
    divisor = 1.0
    if normalize:
        if f.max_distance <= 0.0:
            raise ValueError("cannot normalize: no strictly positive distance")
        divisor = f.max_distance
    deaths = set(pairs.values())
    closed: List[Bar] = []
    zero_length: List[Bar] = []
    opens: List[Bar] = []
    for j, s in enumerate(f.simplices):
        if j in deaths:
            continue
        birth, dim = s.birth, s.dim
        killer = pairs.get(j)
        if killer is None:
            death = 1.0 if normalize else f.span_end
            opens.append(Bar(dim=dim, birth=birth / divisor, death=death, open=True))
        else:
            death = f.simplices[killer].birth
            bar = Bar(dim=dim, birth=birth / divisor, death=death / divisor)
            (zero_length if birth == death else closed).append(bar)
    key = lambda b: (b.dim, b.birth, b.death)
    return Barcode(
        bars=tuple(sorted(closed + opens, key=key)),
        zero_length=tuple(sorted(zero_length, key=key)),
        metric=metric,
        max_dim=f.max_dim,
        n_points=f.n_points,
        normalized=normalize,
        span_end=f.span_end / divisor,
    )


def barcode(
    f: Filtration, normalize: bool = True, metric: str = ""
) -> Barcode:
    """Convenience pipeline: persistence pairs → bars."""
    return extract_pairs(persistence_pairs(f), f, normalize=normalize, metric=metric)


BARCODE_HEADER = "dim,birth,death,open"


def write_barcode_csv(
    path: str, bc: Barcode, config: Optional[Dict] = None
) -> None:
    """CSV with one bar per line; zero-length pairs included and marked by
    birth = death, so the reader can reconstruct the full object."""
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
    for b in list(bc.bars) + list(bc.zero_length):
        lines.append(f"{b.dim},{fmt(b.birth)},{fmt(b.death)},{1 if b.open else 0}")
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
    """Parse a barcode CSV, refusing what no pipeline run writes: a mistyped
    ``barcode-meta`` field, and bars with ``dim < 0``, a dim above the meta
    ``max_dim``, ``birth < 0``, ``death < birth``, in a normalized barcode
    ``death > 1``, or an open bar that does not die at the right edge (1 when
    normalized, else the meta ``span_end``)."""
    lines = fileio.read_lines(path)
    header = fileio.parse_metadata(path, lines)
    meta = header.get(BARCODE_META_KEY, {})
    for key, (kind, types) in _META_TYPES.items():
        if key in meta and type(meta[key]) not in types:
            raise ParseError(
                path,
                header["lines"][BARCODE_META_KEY],
                f"{BARCODE_META_KEY} {key!r} must be a JSON {kind}, got {meta[key]!r}",
            )
    normalized = meta.get("normalized", True)
    open_end = 1.0 if normalized else meta.get("span_end")
    bars: List[Bar] = []
    zero_length: List[Bar] = []
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
        if dim > meta.get("max_dim", dim):
            raise ParseError(path, lineno, f"dim above max_dim {meta['max_dim']}: {text!r}")
        if is_open and open_end is not None and death != open_end:
            raise ParseError(path, lineno, f"open bar must die at {fmt(open_end)}: {text!r}")
        bar = Bar(dim=dim, birth=birth, death=death, open=is_open)
        if not is_open and birth == death:
            zero_length.append(bar)
        else:
            bars.append(bar)
    if not saw_header:
        raise ParseError(path, len(lines) or 1, "no barcode header found")
    top = max((b.dim for b in bars + zero_length), default=0)
    return Barcode(
        bars=tuple(bars),
        zero_length=tuple(zero_length),
        metric=meta.get("metric", ""),
        max_dim=meta.get("max_dim", top),
        n_points=meta.get("n_points", 0),
        normalized=normalized,
        span_end=float(meta.get("span_end", 1.0)),
    )
