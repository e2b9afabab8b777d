"""Command-line entry point wiring the full pipeline.

Commands:
  cloud    generate a point cloud from the built-in four-hole disk region
  dice     enumerate dice, build the beating graph, emit graph + distances
  persist  barcode of one input (points CSV or distance-matrix CSV)
  compare  barcodes + statistics across several metrics on one data set
  stats    statistics tables from existing barcode CSVs

Every output file begins with a metadata comment carrying the tool version
and the parsed options of the command as JSON: ``command``, ``out_dir`` and
that command's own flags under their argparse ``dest`` names.  Outputs are
self-describing and bit-reproducible: same options + inputs → identical bytes.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import cloud as cloud_mod
from . import dice as dice_mod
from . import fileio, metrics, persistence, render, stats
from .filtration import build_filtration
from .metrics import PLANAR_METRICS, DistanceMatrix

DICE_MAX_DIM = 9
CLOUD_MAX_DIM = 2
DEFAULT_METRICS = ("euclidean", "taxicab", "supremum")

Runs = List[Tuple[str, persistence.Barcode]]


class UsageError(Exception):
    """Bad command line or flag combination (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via UsageError (exit code 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _natural(text: str) -> int:
    """A ``--seed`` value: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _max_dim(text: str) -> int:
    """A ``--max-dim`` value: an integer in [0, 2**63), as a barcode file's is."""
    cap = _natural(text)
    if cap >= 2**63:
        raise argparse.ArgumentTypeError(f"must be below 2**63, got {text!r}")
    return cap


def _face_sum(text: str) -> int:
    """A ``--face-sum`` value: an integer below 2**63, so the dice fit int64."""
    total = int(text)
    if total >= 2**63:
        raise argparse.ArgumentTypeError(f"must be below 2**63, got {text!r}")
    return total


def _metric(name: str) -> str:
    """A planar metric name: ``--metric``, and each name in ``--metrics``."""
    name = name.strip()
    if name not in PLANAR_METRICS:
        raise argparse.ArgumentTypeError(
            f"unknown metric {name!r}; valid: {', '.join(sorted(PLANAR_METRICS))}"
        )
    return name


def _metric_list(text: str) -> Tuple[str, ...]:
    """A ``--metrics`` value: two or more distinct comma-separated metric names."""
    names = tuple(_metric(t) for t in text.split(",") if t.strip())
    if len(names) < 2 or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(
            f"compare needs at least 2 distinct metrics, got {list(names)}"
        )
    return names


def _build_parser() -> _Parser:
    parser = _Parser(prog="ripsbars", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--out", dest="out_dir", default=".", metavar="DIR", help="output directory"
        )
        return p

    def add_filtration_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-dim", type=_max_dim, default=None)
        p.add_argument(
            "--stop-on-connected", dest="stop_when_connected", action="store_true"
        )

    p_cloud = add_command("cloud", "sample a synthetic point cloud")
    p_cloud.add_argument("--points", type=int, default=50, help="number of points")
    p_cloud.add_argument("--seed", type=_natural, default=cloud_mod.DEFAULT_SEED)

    p_dice = add_command("dice", "dice space, beating graph, distances")
    p_dice.add_argument("--sides", type=int, default=6)
    p_dice.add_argument("--max-face", type=int, default=6)
    p_dice.add_argument("--face-sum", type=_face_sum, default=21)
    p_dice.add_argument(
        "--tie-convention", choices=dice_mod.TIE_CONVENTIONS, default="majority"
    )
    p_dice.add_argument(
        "--symmetry-pairing", choices=dice_mod.SYMMETRY_PAIRINGS, default="literal"
    )

    p_persist = add_command("persist", "barcode of one input file")
    p_persist.add_argument(
        "--input",
        dest="input_path",
        required=True,
        metavar="CSV",
        help="points CSV or distance-matrix CSV",
    )
    p_persist.add_argument(
        "--metric",
        type=_metric,
        default=None,
        help=f"planar metric for points input (default euclidean): {sorted(PLANAR_METRICS)}",
    )
    add_filtration_flags(p_persist)
    p_persist.add_argument("--no-normalize", dest="normalize", action="store_false")
    p_persist.add_argument("--svg", action="store_true", help="also render an SVG barcode")

    p_compare = add_command("compare", "compare metrics on one data set")
    p_compare.add_argument(
        "--input", dest="input_path", default=None, metavar="CSV", help="points CSV"
    )
    p_compare.add_argument(
        "--metrics",
        type=_metric_list,
        default=(),
        help="comma-separated planar metrics (default: euclidean,taxicab,supremum)",
    )
    p_compare.add_argument(
        "--matrices",
        dest="matrix_paths",
        nargs="+",
        default=(),
        metavar="CSV",
        help="two or more distance-matrix CSVs over the same points",
    )
    add_filtration_flags(p_compare)
    p_compare.add_argument("--svg", action="store_true")

    p_stats = add_command("stats", "statistics from barcode CSVs")
    p_stats.add_argument(
        "barcode_paths", nargs="+", metavar="CSV", help="barcode CSV files"
    )

    return parser


def _output(args: argparse.Namespace, name: str) -> str:
    """Path of output file ``name``, creating the output directory if needed."""
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _label(metric: str, path: str) -> str:
    """Run label of an input: its recorded metric, else its file stem."""
    return metric or os.path.splitext(os.path.basename(path))[0]


def _read_input(path: str, metric: Optional[str]) -> Tuple[DistanceMatrix, str, int]:
    """Read ``path`` once → (distance matrix, run label, default max_dim).

    A points CSV is measured with ``metric`` (default euclidean) and capped at
    dimension 2.  A distance-matrix CSV already is its metric; it is capped at
    min(9, n − 1) when its header says ``ripsbars dice`` wrote it, else at 2.
    """
    lines = fileio.read_lines(path)
    if cloud_mod.looks_like_points_csv(lines):
        metric = metric or "euclidean"
        points = cloud_mod.read_points_csv(path, lines)
        return metrics.build_distance_matrix(points, metric), metric, CLOUD_MAX_DIM
    if metric is not None:
        raise UsageError(
            "--metric applies to points input; a distance matrix already is the metric"
        )
    m, header = metrics.read_distance_csv(path, lines)
    source = header.get("config", {}).get("command")
    max_dim = min(DICE_MAX_DIM, m.n - 1) if source == "dice" else CLOUD_MAX_DIM
    return m, _label(m.metric, path), max_dim


def _barcode(
    args: argparse.Namespace,
    m: DistanceMatrix,
    label: str,
    default_max_dim: int,
    normalize: bool,
) -> persistence.Barcode:
    max_dim = default_max_dim if args.max_dim is None else args.max_dim
    f = build_filtration(m, max_dim=max_dim, stop_when_connected=args.stop_when_connected)
    return persistence.barcode(f, normalize=normalize, metric=label)


def _write_barcodes(args: argparse.Namespace, runs: Runs) -> None:
    for label, bc in runs:
        path = _output(args, f"barcode_{label}.csv")
        persistence.write_barcode_csv(path, bc, config=vars(args))
        print(f"wrote {path}")
        if args.svg:
            path = _output(args, f"barcode_{label}.svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render.barcode_svg(bc, config=vars(args)))
            print(f"wrote {path}")


def _cmd_cloud(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    pts = cloud_mod.sample_region(cloud_mod.four_hole_disk(), args.points, seed=args.seed)
    path = _output(args, "points.csv")
    cloud_mod.write_points_csv(path, pts, config=vars(args))
    print(f"wrote {len(pts)} points to {path}")
    return 0


def _cmd_dice(args: argparse.Namespace) -> int:
    if args.sides < 1 or args.max_face < 1:
        raise UsageError("--sides and --max-face must be >= 1")
    space = dice_mod.enumerate_dice(args.sides, args.max_face, args.face_sum)
    graph = dice_mod.build_beating_graph(space, args.tie_convention)
    sub = dice_mod.induced_subgraph(graph, dice_mod.non_transitive_subset(graph))
    # Foliation and symmetry are defined on 6-sided dice with faces in 1..6.
    if sub.n and (sub.faces.shape[1] != 6 or sub.faces.max() > 6):
        raise UsageError(
            f"this space has {sub.n} non-transitive dice, but the foliation-symmetry "
            "distance needs 6-sided dice with faces <= 6 (--sides 6, --max-face <= 6)"
        )
    meta = fileio.metadata_lines(vars(args))
    texts = {
        "dice.txt": meta + [dice_mod.die_label(d) for d in sub.faces.tolist()],
        "beating_graph.dot": fileio.metadata_lines(vars(args), comment="//")
        + [dice_mod.to_dot(sub)],
    }
    names = ("similarity", "euclidean", "foliation_symmetry")
    matrices: List[DistanceMatrix] = []
    if sub.n:
        matrices = [
            dice_mod.similarity_distance_matrix(sub),
            dice_mod.euclidean_dice_distance_matrix(sub.faces),
            dice_mod.foliation_symmetry_distance_matrix(
                sub.faces, pairing=args.symmetry_pairing
            ),
        ]
    else:
        print(
            f"warning: no non-transitive dice in this space "
            f"({len(space)} dice, {args.tie_convention})",
            file=sys.stderr,
        )
        texts.update((f"dist_{name}.csv", meta + ["# empty: no dice"]) for name in names)

    # Nothing is written before every output is built: a failure leaves no partial run.
    written = []
    for name, lines in texts.items():
        written.append(_output(args, name))
        fileio.write_text(written[-1], lines)
    for name, matrix in zip(names, matrices):
        written.append(_output(args, f"dist_{name}.csv"))
        metrics.write_distance_csv(written[-1], matrix, config=vars(args))

    print(
        f"space: {len(space)} dice (sides={args.sides}, max_face={args.max_face}, "
        f"face_sum={args.face_sum}); non-transitive subset: {sub.n} "
        f"under {args.tie_convention!r}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_persist(args: argparse.Namespace) -> int:
    m, label, max_dim = _read_input(args.input_path, args.metric)
    bc = _barcode(args, m, label, max_dim, args.normalize)
    _write_barcodes(args, [(label, bc)])
    alive = np.bincount(bc.dim[: bc.n_bars], weights=bc.count[: bc.n_bars]).astype(np.int64)
    summary = ", ".join(f"H{d}: {count}" for d, count in enumerate(alive.tolist()) if count)
    print(f"bars ({label}): {summary if summary else 'none'}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.input_path and args.matrix_paths:
        raise UsageError("give either --input with --metrics, or --matrices, not both")
    runs: Runs = []
    if args.input_path:
        pts = cloud_mod.read_points_csv(args.input_path, fileio.read_lines(args.input_path))
        for name in args.metrics or DEFAULT_METRICS:
            m = metrics.build_distance_matrix(pts, name)
            runs.append((name, _barcode(args, m, name, CLOUD_MAX_DIM, True)))
    elif args.matrix_paths:
        if len(args.matrix_paths) < 2:
            raise UsageError(
                f"compare needs at least 2 matrices, got {len(args.matrix_paths)}"
            )
        if args.metrics:
            raise UsageError("--metrics applies to --input mode; matrices are self-labeled")
        inputs = [_read_input(path, None) for path in args.matrix_paths]
        # Refused here, before any filtration is built.
        stats.check_runs([label for _, label, _ in inputs], [m.n for m, _, _ in inputs])
        for m, label, max_dim in inputs:
            runs.append((label, _barcode(args, m, label, max_dim, True)))
    else:
        raise UsageError("compare needs --input (points) or --matrices (distance CSVs)")

    report = stats.compare(runs)
    _write_barcodes(args, runs)
    csv_path = _output(args, "stats.csv")
    stats.write_stats_csv(csv_path, report, config=vars(args))
    table = stats.format_stats_table(report)
    table_path = _output(args, "stats.txt")
    fileio.write_text(table_path, fileio.metadata_lines(vars(args)) + table.splitlines())
    print(f"wrote {csv_path}")
    print(f"wrote {table_path}")
    print(table, end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    runs: Runs = []
    for path in args.barcode_paths:
        bc = persistence.read_barcode_csv(path)
        runs.append((_label(bc.metric, path), bc))
    report = stats.stats_report(runs)
    csv_path = _output(args, "stats.csv")
    stats.write_stats_csv(csv_path, report, config=vars(args))
    table = stats.format_stats_table(report)
    print(f"wrote {csv_path}")
    print(table, end="")
    return 0


_HANDLERS = {
    "cloud": _cmd_cloud,
    "dice": _cmd_dice,
    "persist": _cmd_persist,
    "compare": _cmd_compare,
    "stats": _cmd_stats,
}
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violations and everything unexpected
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
