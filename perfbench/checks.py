"""Output checks for one iteration of a workload.

Two kinds of check feed the benchmark's failure count:

* invariants that hold at any seed, recomputed here from the inputs with
  numpy and plain Python, never with ``ripsbars`` code:
  - every simplex is a birth or a death exactly once, so the simplex counts
    per dimension implied by the barcode equal an independent count of the
    cliques of the threshold graph at ``span_end``;
  - dimension 0 holds exactly ``n`` rows (zero-length pairs included), one
    of them open, and its deaths are the minimum-spanning-tree edge lengths;
  - ``span_end`` is the connectivity threshold (with ``--stop-on-connected``)
    or the largest distance (without it);
  - ``0 <= birth <= death <= 1`` on the normalized scale, and nothing dies
    in the top dimension, where no coface exists to kill it;
  - stats files and SVG plots agree with the barcodes they summarise;
* reference digests of the parsed content of every output, captured at the
  seed commit for the default seed (cloud parts) or for any seed (dice parts,
  which take no random input).

Raw-byte identity with the reference is reported separately and never counts
as a failure: headers may legitimately change (provenance, versions).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from workloads import Part

Row = Tuple[int, float, float, bool]  # dim, birth, death, open
TOL = 1e-9
METADATA_MARKERS = ("ripsbars-version", "ripsbars-config")


class CheckError(Exception):
    """An output failed a check; the message names the file and the rule."""


def _data_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8") as fh:
        return [t for t in (line.strip() for line in fh) if t and not t.startswith("#")]


def read_points(path: str) -> np.ndarray:
    lines = _data_lines(path)
    if lines[:1] != ["x,y"]:
        raise CheckError(f"{path}: missing 'x,y' header")
    pts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.isfinite(pts).all():
        raise CheckError(f"{path}: malformed points")
    return pts


def read_matrix(path: str) -> np.ndarray:
    m = np.array([[float(v) for v in line.split(",")] for line in _data_lines(path)])
    if m.ndim != 2 or m.shape[0] != m.shape[1] or (np.diag(m) != 0).any() or (m < 0).any():
        raise CheckError(f"{path}: not a square zero-diagonal non-negative matrix")
    return np.maximum(m, m.T)


def read_barcode(path: str) -> Tuple[dict, List[Row]]:
    meta: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    body = []
    for line in lines:
        if line.startswith("# barcode-meta "):
            meta = json.loads(line[len("# barcode-meta "):])
        elif not line.startswith("#"):
            body.append(line)
    if body[:1] != ["dim,birth,death,open"] or not meta:
        raise CheckError(f"{path}: missing barcode header or metadata")
    rows = []
    for line in body[1:]:
        dim, birth, death, is_open = line.split(",")
        if is_open not in ("0", "1"):
            raise CheckError(f"{path}: bad open flag in {line!r}")
        rows.append((int(dim), float(birth), float(death), is_open == "1"))
    return meta, rows


def distances(points: np.ndarray, metric: str) -> np.ndarray:
    dx = points[:, 0][:, None] - points[:, 0][None, :]
    dy = points[:, 1][:, None] - points[:, 1][None, :]
    if metric == "euclidean":
        return np.hypot(dx, dy)
    if metric == "taxicab":
        return np.abs(dx) + np.abs(dy)
    if metric == "supremum":
        return np.maximum(np.abs(dx), np.abs(dy))
    raise CheckError(f"unknown cloud metric {metric!r}")


def mst_weights(d: np.ndarray) -> np.ndarray:
    """Edge lengths of a minimum spanning tree (Prim, O(n^2))."""
    n = len(d)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    out = []
    for _ in range(n - 1):
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
        out.append(best[v])
        in_tree[v] = True
        best = np.minimum(best, d[v])
    return np.sort(np.array(out))


def clique_counts(adj: np.ndarray, max_size: int, use_numpy: bool) -> List[int]:
    """Cliques of 1 .. ``max_size`` vertices in the graph ``adj``.

    Clouds (``max_size`` 3) count edges and triangles with matrix products;
    dice count cliques of any size by bitset enumeration.
    """
    n = len(adj)
    if use_numpy:
        a = adj.astype(np.float64)
        counts = [n, int(a.sum()) // 2, int(round(((a @ a) * a).sum())) // 6]
        return counts[:max_size]
    higher = [sum(1 << j for j in range(v + 1, n) if adj[v, j]) for v in range(n)]
    counts = [0] * max_size

    def grow(size: int, cands: int) -> None:
        counts[size - 1] += 1
        if size == max_size:
            return
        while cands:
            low = cands & -cands
            cands ^= low
            grow(size + 1, cands & higher[low.bit_length() - 1])

    for v in range(n):
        grow(1, higher[v])
    return counts


def check_barcode(
    path: str, meta: dict, rows: Sequence[Row], d: np.ndarray, part: Part, label: str
) -> None:
    n, top = len(d), part.max_dim
    if (meta.get("metric"), meta.get("max_dim"), meta.get("n_points"), meta.get("normalized")) != (
        label, top, n, True
    ):
        raise CheckError(f"{path}: metadata {meta} does not match {label}, cap {top}, n={n}")
    max_d = float(d.max())
    mst = mst_weights(d)
    eps = float(mst[-1]) if part.stop_on_connected else max_d
    if not math.isclose(meta["span_end"], eps / max_d, rel_tol=TOL, abs_tol=1e-12):
        raise CheckError(f"{path}: span_end {meta['span_end']} != {eps / max_d}")
    for dim, birth, death, is_open in rows:
        if not (0 <= dim <= top and 0.0 <= birth <= death <= 1.0):
            raise CheckError(f"{path}: bad bar {(dim, birth, death, is_open)}")
        if is_open and death != 1.0:
            raise CheckError(f"{path}: open bar with death {death}")
        if not is_open and dim == top:
            raise CheckError(f"{path}: bar closed in the top dimension {top}")
    implied = [0] * (top + 1)
    for dim, _, _, is_open in rows:
        implied[dim] += 1
        if not is_open:
            implied[dim + 1] += 1
    adj = d <= eps
    np.fill_diagonal(adj, False)
    expected = clique_counts(adj, top + 1, use_numpy=part.domain == "cloud")
    if implied != expected:
        raise CheckError(f"{path}: simplices per dimension {implied} != cliques {expected}")
    h0 = [r for r in rows if r[0] == 0]
    if len(h0) != n or sum(r[3] for r in h0) != 1:
        raise CheckError(f"{path}: dimension 0 holds {len(h0)} rows for {n} points")
    deaths = np.sort(np.array([r[2] for r in h0 if not r[3]]))
    if not np.allclose(deaths, mst / max_d, rtol=TOL, atol=1e-12):
        raise CheckError(f"{path}: H0 deaths differ from the spanning-tree edge lengths")


def bar_summary(rows: Sequence[Row]) -> Dict[int, Tuple[int, float, float, float]]:
    """Per dimension: count, mean, min and max lifespan, zero-length excluded."""
    spans: Dict[int, List[float]] = {}
    for dim, birth, death, is_open in rows:
        if is_open or birth != death:
            spans.setdefault(dim, []).append((1.0 - birth) if is_open else (death - birth))
    return {dim: (len(v), sum(v) / len(v), min(v), max(v)) for dim, v in spans.items()}


def check_stats(out: str, part: Part, summaries: Dict[str, dict]) -> None:
    top = max((max(s, default=0) for s in summaries.values()), default=0)
    expected = {}
    for label, s in summaries.items():
        for dim in range(top + 1):
            expected[(label, dim)] = s.get(dim, (0, None, None, None))
    if "stats.csv" in part.stats_files:
        path = os.path.join(out, "stats.csv")
        lines = _data_lines(path)
        if lines[:1] != ["metric,dim,count,avg,min,max"]:
            raise CheckError(f"{path}: missing header")
        seen = {}
        for line in lines[1:]:
            label, dim, count, *values = line.split(",")
            seen[(label, int(dim))] = (int(count),) + tuple(
                None if v == "-" else float(v) for v in values
            )
        if seen.keys() != expected.keys():
            raise CheckError(f"{path}: rows {sorted(seen)} != {sorted(expected)}")
        for key, want in expected.items():
            got = seen[key]
            same = got[0] == want[0] and all(
                (g is None and w is None)
                or (g is not None and w is not None and math.isclose(g, w, rel_tol=TOL, abs_tol=1e-12))
                for g, w in zip(got[1:], want[1:])
            )
            if not same:
                raise CheckError(f"{path}: {key} is {got}, barcode gives {want}")
    if "stats.txt" in part.stats_files:
        path = os.path.join(out, "stats.txt")
        lines = _data_lines(path)
        counts = {(r[1], int(r[0])): int(r[2]) for r in (line.split() for line in lines[1:])}
        if counts != {k: v[0] for k, v in expected.items()}:
            raise CheckError(f"{path}: bar counts disagree with the barcodes")


def check_svg(path: str, rows: Sequence[Row]) -> None:
    root = ET.parse(path).getroot()
    bars = [e for e in root.iter() if e.tag.endswith("line") and e.get("stroke-width") == "3"]
    if len(bars) != len([r for r in rows if r[3] or r[1] != r[2]]):
        raise CheckError(f"{path}: {len(bars)} bars drawn for {len(rows)} barcode rows")


def check_part(out: str, part: Part) -> None:
    """Seed-independent invariants of every output of one part."""
    if part.domain == "cloud":
        points = read_points(os.path.join(out, "points.csv"))
        if len(points) != part.points:
            raise CheckError(f"{out}/points.csv: {len(points)} points, expected {part.points}")
        matrices = {label: distances(points, label) for label in part.barcode_labels}
    else:
        names = [label.replace("-", "_") for label in part.barcode_labels]
        matrices = {
            label: read_matrix(os.path.join(out, f"dist_{name}.csv"))
            for label, name in zip(part.barcode_labels, names)
        }
        n_dice = len(_data_lines(os.path.join(out, "dice.txt")))
        if any(len(m) != n_dice for m in matrices.values()):
            raise CheckError(f"{out}: distance matrices do not match dice.txt ({n_dice} dice)")
    summaries = {}
    for label, d in matrices.items():
        path = os.path.join(out, f"barcode_{label}.csv")
        meta, rows = read_barcode(path)
        check_barcode(path, meta, rows, d, part, label)
        summaries[label] = bar_summary(rows)
        if part.svg:
            check_svg(os.path.join(out, f"barcode_{label}.svg"), rows)
    check_stats(out, part, summaries)


def _short(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def digests(out: str) -> Dict[str, List[str]]:
    """File name -> [digest of parsed content, digest of raw bytes]."""
    result = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        if name.startswith("barcode_") and name.endswith(".csv"):
            meta, rows = read_barcode(path)
            parsed = json.dumps([meta, sorted(rows)], sort_keys=True).encode()
        else:
            text = raw.decode("utf-8").splitlines()
            parsed = "\n".join(
                t.strip() for t in text if not any(m in t for m in METADATA_MARKERS)
            ).encode()
        result[name] = [_short(parsed), _short(raw)]
    return result


class Checker:
    """Checks iterations against invariants and, where one applies, the reference.

    Invariant results are memoised by the raw digests of a part's outputs, so
    an iteration that reproduces already-verified bytes costs only hashing.
    """

    def __init__(self, reference: Optional[dict]):
        self.reference = reference
        self._verified: Dict[Tuple, Optional[str]] = {}
        self.byte_mismatches: set = set()
        self.byte_compared = 0

    def reference_for(self, workload: str, part: Part, seed: int, index: int) -> Optional[dict]:
        if self.reference is None:
            return None
        entries = self.reference["workloads"].get(workload, {}).get(part.name, [])
        if part.domain == "dice":
            return entries[0] if entries else None
        if seed != self.reference["seed"] or index >= len(entries):
            return None
        return entries[index]

    def check(self, workload: str, part: Part, out: str, seed: int, index: int) -> Optional[str]:
        """None when the part's outputs pass, else the first failure."""
        try:
            found = digests(out)
        except (OSError, ValueError, CheckError) as exc:
            return f"{out}: unreadable outputs: {exc}"
        key = (part.name, tuple((k, v[1]) for k, v in found.items()))
        if key not in self._verified:
            try:
                check_part(out, part)
                self._verified[key] = None
            except (OSError, ValueError, KeyError, IndexError, ET.ParseError, CheckError) as exc:
                self._verified[key] = f"{type(exc).__name__}: {exc}"
        if self._verified[key] is not None:
            return self._verified[key]
        ref = self.reference_for(workload, part, seed, index)
        if ref is None:
            return None
        if sorted(ref) != sorted(found):
            return f"{out}: files {sorted(found)} != reference {sorted(ref)}"
        for name, (parsed, raw) in ref.items():
            if found[name][0] != parsed:
                return f"{out}/{name}: parsed content differs from the reference"
            self.byte_compared += 1
            if found[name][1] != raw:
                self.byte_mismatches.add(f"{part.name}/{name}")
        return None
