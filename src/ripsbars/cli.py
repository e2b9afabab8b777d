"""Command-line entry point wiring the full pipeline.

Commands:
  cloud    generate a point cloud from the built-in four-hole disk region
  dice     enumerate dice, build the beating graph, emit graph + distances
  persist  barcode of one input (points CSV or distance-matrix CSV)
  compare  barcodes + statistics across several metrics on one data set
  stats    statistics tables from existing barcode CSVs

Every output file begins with a metadata comment carrying the tool version
and the options the command used (JSON), so outputs are self-describing
and bit-reproducible: same config + inputs → identical bytes.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import cloud as cloud_mod
from . import dice as dice_mod
from . import fileio, metrics, persistence, render, stats
from .fileio import ParseError
from .filtration import build_filtration
from .metrics import PLANAR_METRICS, DistanceMatrix

DICE_MAX_DIM = 9
CLOUD_MAX_DIM = 2


class UsageError(Exception):
    """Bad command line or flag combination (exit code 1)."""


#: The RunConfig fields each command sets from its flags (see
#: ``_config_from_args``); output headers record only these.
COMMAND_FIELDS: Dict[str, Tuple[str, ...]] = {
    "cloud": ("points", "seed"),
    "dice": ("sides", "max_face", "face_sum", "tie_convention", "symmetry_pairing"),
    "persist": ("input_path", "metric", "max_dim", "stop_when_connected", "normalize", "svg"),
    "compare": ("input_path", "metrics", "matrix_paths", "max_dim", "stop_when_connected", "svg"),
    "stats": ("barcode_paths",),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; round-trips through output metadata."""

    command: str
    out_dir: str = "."
    input_path: Optional[str] = None
    matrix_paths: Tuple[str, ...] = ()
    barcode_paths: Tuple[str, ...] = ()
    metric: Optional[str] = None
    metrics: Tuple[str, ...] = ()
    max_dim: Optional[int] = None
    stop_when_connected: bool = False
    normalize: bool = True
    seed: int = cloud_mod.DEFAULT_SEED
    points: int = 50
    svg: bool = False
    sides: int = 6
    max_face: int = 6
    face_sum: int = 21
    tie_convention: str = "majority"
    symmetry_pairing: str = "literal"

    def to_metadata(self) -> Dict[str, Any]:
        """``command``, ``out_dir`` and the fields this command sets."""
        keep = ("command", "out_dir") + COMMAND_FIELDS[self.command]
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
            if key in keep
        }

    @classmethod
    def from_metadata(cls, blob: Dict[str, Any]) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        kwargs: Dict[str, Any] = {}
        for key, value in blob.items():
            if key not in names:
                continue
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via UsageError (exit code 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ripsbars", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=".", metavar="DIR", help="output directory")

    p_cloud = sub.add_parser("cloud", help="sample a synthetic point cloud")
    add_common(p_cloud)
    p_cloud.add_argument("--points", type=int, default=50, help="number of points")
    p_cloud.add_argument("--seed", type=int, default=cloud_mod.DEFAULT_SEED)

    p_dice = sub.add_parser("dice", help="dice space, beating graph, distances")
    add_common(p_dice)
    p_dice.add_argument("--sides", type=int, default=6)
    p_dice.add_argument("--max-face", type=int, default=6)
    p_dice.add_argument("--face-sum", type=int, default=21)
    p_dice.add_argument(
        "--tie-convention", choices=dice_mod.TIE_CONVENTIONS, default="majority"
    )
    p_dice.add_argument(
        "--symmetry-pairing", choices=dice_mod.SYMMETRY_PAIRINGS, default="literal"
    )

    p_persist = sub.add_parser("persist", help="barcode of one input file")
    add_common(p_persist)
    p_persist.add_argument(
        "--input", required=True, metavar="CSV", help="points CSV or distance-matrix CSV"
    )
    p_persist.add_argument(
        "--metric",
        default=None,
        help=f"planar metric for points input (default euclidean): {sorted(PLANAR_METRICS)}",
    )
    p_persist.add_argument("--max-dim", type=int, default=None)
    p_persist.add_argument("--stop-on-connected", action="store_true")
    p_persist.add_argument("--no-normalize", action="store_true")
    p_persist.add_argument("--svg", action="store_true", help="also render an SVG barcode")

    p_compare = sub.add_parser("compare", help="compare metrics on one data set")
    add_common(p_compare)
    p_compare.add_argument("--input", default=None, metavar="CSV", help="points CSV")
    p_compare.add_argument(
        "--metrics",
        default=None,
        help="comma-separated planar metrics (default: euclidean,taxicab,supremum)",
    )
    p_compare.add_argument(
        "--matrices",
        nargs="+",
        default=None,
        metavar="CSV",
        help="two or more distance-matrix CSVs over the same points",
    )
    p_compare.add_argument("--max-dim", type=int, default=None)
    p_compare.add_argument("--stop-on-connected", action="store_true")
    p_compare.add_argument("--svg", action="store_true")

    p_stats = sub.add_parser("stats", help="statistics from barcode CSVs")
    add_common(p_stats)
    p_stats.add_argument("barcodes", nargs="+", metavar="CSV", help="barcode CSV files")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs: Dict[str, Any] = {"command": args.command, "out_dir": args.out}
    if args.command == "cloud":
        kwargs.update(points=args.points, seed=args.seed)
    elif args.command == "dice":
        kwargs.update(
            sides=args.sides,
            max_face=args.max_face,
            face_sum=args.face_sum,
            tie_convention=args.tie_convention,
            symmetry_pairing=args.symmetry_pairing,
        )
    elif args.command == "persist":
        kwargs.update(
            input_path=args.input,
            metric=args.metric,
            max_dim=args.max_dim,
            stop_when_connected=args.stop_on_connected,
            normalize=not args.no_normalize,
            svg=args.svg,
        )
    elif args.command == "compare":
        metric_list: Tuple[str, ...] = ()
        if args.metrics is not None:
            metric_list = tuple(t.strip() for t in args.metrics.split(",") if t.strip())
        kwargs.update(
            input_path=args.input,
            metrics=metric_list,
            matrix_paths=tuple(args.matrices) if args.matrices else (),
            max_dim=args.max_dim,
            stop_when_connected=args.stop_on_connected,
            svg=args.svg,
        )
    elif args.command == "stats":
        kwargs.update(barcode_paths=tuple(args.barcodes))
    return RunConfig(**kwargs)


def _ensure_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _out_path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _embedded_command(path: str) -> str:
    """Command recorded in a file's metadata header ('' when absent)."""
    meta = fileio.parse_metadata(path, fileio.read_lines(path))
    return str(meta.get("config", {}).get("command", ""))


def _default_max_dim(m: DistanceMatrix, source_command: str) -> int:
    """Dimension cap: 2 for planar clouds, 9 for dice-domain matrices."""
    if source_command == "dice":
        return min(DICE_MAX_DIM, m.n - 1)
    return CLOUD_MAX_DIM


def _pipeline(
    m: DistanceMatrix,
    cfg: RunConfig,
    max_dim: int,
    metric_label: str,
    normalize: bool,
) -> persistence.Barcode:
    f = build_filtration(m, max_dim=max_dim, stop_when_connected=cfg.stop_when_connected)
    return persistence.barcode(f, normalize=normalize, metric=metric_label)


def _write_barcode_outputs(
    cfg: RunConfig, bc: persistence.Barcode, label: str
) -> List[str]:
    written = []
    csv_path = _out_path(cfg, f"barcode_{label}.csv")
    persistence.write_barcode_csv(csv_path, bc, config=cfg.to_metadata())
    written.append(csv_path)
    if cfg.svg:
        svg_path = _out_path(cfg, f"barcode_{label}.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(render.barcode_svg(bc, config=cfg.to_metadata()))
        written.append(svg_path)
    return written


def _cmd_cloud(cfg: RunConfig) -> int:
    if cfg.points < 1:
        raise UsageError(f"--points must be >= 1, got {cfg.points}")
    _ensure_out(cfg)
    region = cloud_mod.four_hole_disk()
    pts = cloud_mod.sample_region(region, cfg.points, seed=cfg.seed)
    path = _out_path(cfg, "points.csv")
    cloud_mod.write_points_csv(path, pts, config=cfg.to_metadata())
    print(f"wrote {len(pts)} points to {path}")
    return 0


def _cmd_dice(cfg: RunConfig) -> int:
    if cfg.sides < 1 or cfg.max_face < 1:
        raise UsageError("--sides and --max-face must be >= 1")
    _ensure_out(cfg)
    space = dice_mod.enumerate_dice(cfg.sides, cfg.max_face, cfg.face_sum)
    graph = dice_mod.build_beating_graph(space, cfg.tie_convention)
    ntd = dice_mod.non_transitive_subset(graph)
    meta = cfg.to_metadata()

    dice_path = _out_path(cfg, "dice.txt")
    lines = fileio.metadata_lines(meta)
    lines.extend(dice_mod.die_label(d) for d in ntd)
    fileio.write_text(dice_path, lines)

    sub = dice_mod.induced_subgraph(graph, ntd)
    dot_path = _out_path(cfg, "beating_graph.dot")
    dot_lines = fileio.metadata_lines(meta, comment="//")
    dot_lines.append(dice_mod.to_dot(sub).rstrip("\n"))
    fileio.write_text(dot_path, dot_lines)

    written = [dice_path, dot_path]
    if not ntd:
        print(
            f"warning: no non-transitive dice in this space "
            f"({len(space.dice)} dice, {cfg.tie_convention})",
            file=sys.stderr,
        )
        for name in ("similarity", "euclidean", "foliation_symmetry"):
            path = _out_path(cfg, f"dist_{name}.csv")
            fileio.write_text(path, fileio.metadata_lines(meta) + ["# empty: no dice"])
            written.append(path)
    else:
        matrices = (
            ("similarity", dice_mod.similarity_distance_matrix(sub)),
            ("euclidean", dice_mod.euclidean_dice_distance_matrix(sub.nodes)),
            (
                "foliation_symmetry",
                dice_mod.foliation_symmetry_distance_matrix(
                    sub.nodes, pairing=cfg.symmetry_pairing
                ),
            ),
        )
        for name, matrix in matrices:
            path = _out_path(cfg, f"dist_{name}.csv")
            metrics.write_distance_csv(path, matrix, config=meta)
            written.append(path)

    print(
        f"space: {len(space.dice)} dice (sides={cfg.sides}, max_face={cfg.max_face}, "
        f"face_sum={cfg.face_sum}); non-transitive subset: {len(ntd)} "
        f"under {cfg.tie_convention!r}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _load_matrix_input(
    path: str, cfg: RunConfig
) -> Tuple[DistanceMatrix, str, int]:
    """Read a matrix CSV → (matrix, metric label, default max_dim)."""
    m = metrics.read_distance_csv(path)
    label = m.metric or os.path.splitext(os.path.basename(path))[0]
    max_dim = _default_max_dim(m, _embedded_command(path))
    return m, label, max_dim


def _cmd_persist(cfg: RunConfig) -> int:
    _ensure_out(cfg)
    if cloud_mod.looks_like_points_csv(cfg.input_path):
        metric = cfg.metric or "euclidean"
        if metric not in PLANAR_METRICS:
            raise UsageError(
                f"unknown metric {metric!r}; valid: {', '.join(sorted(PLANAR_METRICS))}"
            )
        pts = cloud_mod.read_points_csv(cfg.input_path)
        m = metrics.build_distance_matrix(pts, metric)
        label = metric
        max_dim = cfg.max_dim if cfg.max_dim is not None else CLOUD_MAX_DIM
    else:
        if cfg.metric is not None:
            raise UsageError(
                "--metric applies to points input; a distance matrix already is the metric"
            )
        m, label, sniffed = _load_matrix_input(cfg.input_path, cfg)
        max_dim = cfg.max_dim if cfg.max_dim is not None else sniffed
    bc = _pipeline(m, cfg, max_dim, label, cfg.normalize)
    for path in _write_barcode_outputs(cfg, bc, label):
        print(f"wrote {path}")
    alive = {}
    for b in bc.bars:
        alive[b.dim] = alive.get(b.dim, 0) + 1
    summary = ", ".join(f"H{d}: {alive[d]}" for d in sorted(alive))
    print(f"bars ({label}): {summary if summary else 'none'}")
    return 0


def _cmd_compare(cfg: RunConfig) -> int:
    _ensure_out(cfg)
    if cfg.input_path and cfg.matrix_paths:
        raise UsageError("give either --input with --metrics, or --matrices, not both")
    runs: List[Tuple[str, persistence.Barcode]] = []
    if cfg.input_path:
        names = cfg.metrics or ("euclidean", "taxicab", "supremum")
        if len(names) < 2:
            raise UsageError(f"compare needs at least 2 metrics, got {list(names)}")
        unknown = [n for n in names if n not in PLANAR_METRICS]
        if unknown:
            raise UsageError(
                f"unknown metrics {unknown}; valid: {', '.join(sorted(PLANAR_METRICS))}"
            )
        pts = cloud_mod.read_points_csv(cfg.input_path)
        max_dim = cfg.max_dim if cfg.max_dim is not None else CLOUD_MAX_DIM
        for name in names:
            m = metrics.build_distance_matrix(pts, name)
            runs.append((name, _pipeline(m, cfg, max_dim, name, True)))
    elif cfg.matrix_paths:
        if len(cfg.matrix_paths) < 2:
            raise UsageError(
                f"compare needs at least 2 matrices, got {len(cfg.matrix_paths)}"
            )
        if cfg.metrics:
            raise UsageError("--metrics applies to --input mode; matrices are self-labeled")
        for path in cfg.matrix_paths:
            m, label, sniffed = _load_matrix_input(path, cfg)
            max_dim = cfg.max_dim if cfg.max_dim is not None else sniffed
            runs.append((label, _pipeline(m, cfg, max_dim, label, True)))
    else:
        raise UsageError("compare needs --input (points) or --matrices (distance CSVs)")

    report = stats.compare(runs)
    for label, bc in runs:
        for path in _write_barcode_outputs(cfg, bc, label):
            print(f"wrote {path}")
    csv_path = _out_path(cfg, "stats.csv")
    stats.write_stats_csv(csv_path, report, config=cfg.to_metadata())
    table = stats.format_stats_table(report)
    table_path = _out_path(cfg, "stats.txt")
    fileio.write_text(table_path, fileio.metadata_lines(cfg.to_metadata()) + table.splitlines())
    print(f"wrote {csv_path}")
    print(f"wrote {table_path}")
    print(table, end="")
    return 0


def _cmd_stats(cfg: RunConfig) -> int:
    _ensure_out(cfg)
    runs: List[Tuple[str, persistence.Barcode]] = []
    for path in cfg.barcode_paths:
        bc = persistence.read_barcode_csv(path)
        label = bc.metric or os.path.splitext(os.path.basename(path))[0]
        runs.append((label, bc))
    report = stats.stats_report(runs)
    csv_path = _out_path(cfg, "stats.csv")
    stats.write_stats_csv(csv_path, report, config=cfg.to_metadata())
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


def _run(argv: Optional[Sequence[str]]) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    return _HANDLERS[cfg.command](cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violations and everything unexpected
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
