"""End-to-end tests of the command-line surface: files, exit codes, messages."""

import hashlib
import math

import numpy as np
import pytest

from ripsbars import cli, fileio
from ripsbars.cli import main
from ripsbars.cloud import read_points_csv, write_points_csv
from ripsbars.filtration import build_filtration
from ripsbars.metrics import (
    DistanceMatrix,
    build_distance_matrix,
    read_distance_csv,
    write_distance_csv,
)
from ripsbars.persistence import read_barcode_csv, write_barcode_csv

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

TEN_DICE = [
    "112566",
    "114555",
    "122556",
    "144444",
    "222366",
    "222555",
    "234444",
    "333336",
    "333345",
    "333444",
]


def write_square(tmp_path, name="points.csv"):
    path = tmp_path / name
    write_points_csv(str(path), SQUARE)
    return path


# ------------------------------------------------------------------- config

#: Header keys of each command: ``command``, ``out_dir`` and its own options.
HEADER_KEYS = {
    "cloud": {"command", "out_dir", "points", "seed"},
    "dice": {"command", "out_dir", "sides", "max_face", "face_sum", "tie_convention",
             "symmetry_pairing"},
    "persist": {"command", "out_dir", "input_path", "metric", "max_dim",
                "stop_when_connected", "normalize", "svg"},
    "compare": {"command", "out_dir", "input_path", "metrics", "matrix_paths", "max_dim",
                "stop_when_connected", "svg"},
    "stats": {"command", "out_dir", "barcode_paths"},
}


def header_config(path):
    return fileio.parse_metadata(str(path), fileio.read_lines(str(path)))["config"]


def test_emitted_file_reproduces_config(tmp_path):
    out = tmp_path / "run"
    assert main(["cloud", "--out", str(out), "--points", "7", "--seed", "3"]) == 0
    path = str(out / "points.csv")
    meta = fileio.parse_metadata(path, fileio.read_lines(path))
    assert meta["version"] == fileio.VERSION
    assert meta["config"] == {"command": "cloud", "out_dir": str(out), "points": 7, "seed": 3}


def test_compare_header_records_only_its_options(tmp_path):
    out = tmp_path / "run"
    assert main(["cloud", "--out", str(out), "--points", "20", "--seed", "7"]) == 0
    assert main(["compare", "--input", str(out / "points.csv"), "--out", str(out)]) == 0
    for name in ("barcode_euclidean.csv", "stats.csv", "stats.txt"):
        config = header_config(out / name)
        assert config["command"] == "compare"
        assert set(config) == HEADER_KEYS["compare"]
        assert "seed" not in config and "points" not in config
        assert "tie_convention" not in config


def test_header_keys_of_every_command(tmp_path):
    c, d = tmp_path / "c", tmp_path / "d"
    argvs = {
        "cloud": ["cloud", "--out", str(c), "--points", "9"],
        "dice": ["dice", "--out", str(d), "--tie-convention", "strict"],
        "persist": ["persist", "--input", str(c / "points.csv"), "--out", str(c)],
        "compare": ["compare", "--matrices", str(d / "dist_similarity.csv"),
                    str(d / "dist_euclidean.csv"), "--out", str(d)],
        "stats": ["stats", str(c / "barcode_euclidean.csv"), "--out", str(tmp_path / "s")],
    }
    outputs = {
        "cloud": c / "points.csv",
        "dice": d / "dice.txt",
        "persist": c / "barcode_euclidean.csv",
        "compare": d / "stats.txt",
        "stats": tmp_path / "s" / "stats.csv",
    }
    assert set(argvs) == set(outputs) == set(HEADER_KEYS)
    for command, argv in argvs.items():
        assert main(argv) == 0, command
        config = header_config(outputs[command])
        assert config["command"] == command
        assert set(config) == HEADER_KEYS[command], command


def test_bad_config_json_is_input_error_with_line(tmp_path, capsys):
    """A broken config header must not silently drop the dice dimension cap."""
    out = tmp_path / "dice"
    assert main(["dice", "--out", str(out), "--tie-convention", "strict"]) == 0
    mat = out / "dist_euclidean.csv"
    lines = mat.read_text().splitlines()
    assert lines[1].startswith("# ripsbars-config {")
    lines[1] = lines[1][:-1]
    mat.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["persist", "--input", str(mat), "--out", str(tmp_path / "bars")]) == 2
    assert f"{mat}:2: bad ripsbars-config JSON" in capsys.readouterr().err


# -------------------------------------------------------------------- cloud

def test_cloud_writes_deterministic_points(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cloud", "--out", str(a), "--points", "20"]) == 0
    assert main(["cloud", "--out", str(b), "--points", "20"]) == 0
    pa = (a / "points.csv").read_text()
    pb = (b / "points.csv").read_text()
    # bodies identical; headers differ only in the recorded out_dir
    assert [l for l in pa.splitlines() if not l.startswith("#")] == [
        l for l in pb.splitlines() if not l.startswith("#")
    ]
    assert main(["cloud", "--out", str(a), "--points", "20"]) == 0
    assert (a / "points.csv").read_text() == pa  # same path → identical bytes


def test_cloud_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["cloud", "--out", str(a), "--seed", "1"])
    main(["cloud", "--out", str(b), "--seed", "2"])
    body = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert body(a / "points.csv") != body(b / "points.csv")


def test_cloud_rejects_nonpositive_count(tmp_path, capsys):
    assert main(["cloud", "--out", str(tmp_path), "--points", "0"]) == 1
    assert "--points must be >= 1" in capsys.readouterr().err


def test_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["cloud", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error: argument --seed: must be an integer >= 0, got '-1'" in err
    assert not out.exists()


# ------------------------------------------------------------------ persist

def test_persist_square_points(tmp_path, capsys):
    pts = write_square(tmp_path)
    out = tmp_path / "out"
    code = main(["persist", "--input", str(pts), "--out", str(out)])
    assert code == 0
    bc = read_barcode_csv(str(out / "barcode_euclidean.csv"))
    assert bc.metric == "euclidean"
    assert bc.normalized
    (h1,) = [b for b in bc.bars if b.dim == 1]
    assert h1.birth == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert h1.death == 1.0
    assert "bars (euclidean)" in capsys.readouterr().out


def test_persist_matrix_equals_persist_points(tmp_path):
    pts = write_square(tmp_path)
    m = build_distance_matrix(SQUARE, "euclidean")
    mat = tmp_path / "matrix.csv"
    write_distance_csv(str(mat), m)
    out_p, out_m = tmp_path / "p", tmp_path / "m"
    assert main(["persist", "--input", str(pts), "--out", str(out_p)]) == 0
    assert main(["persist", "--input", str(mat), "--out", str(out_m)]) == 0
    a = read_barcode_csv(str(out_p / "barcode_euclidean.csv"))
    b = read_barcode_csv(str(out_m / "barcode_euclidean.csv"))
    assert a.bars == b.bars
    assert a.zero_length == b.zero_length
    assert (a.max_dim, a.n_points) == (b.max_dim, b.n_points)


def test_persist_matrix_label_falls_back_to_file_stem(tmp_path):
    entries = np.array([[0.0, 1.0], [1.0, 0.0]])
    mat = tmp_path / "mystery.csv"
    write_distance_csv(str(mat), DistanceMatrix(entries=entries))
    assert main(["persist", "--input", str(mat), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "barcode_mystery.csv").exists()


def test_persist_unknown_metric(tmp_path, capsys):
    pts = write_square(tmp_path)
    code = main(
        ["persist", "--input", str(pts), "--metric", "chebyshov", "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "euclidean, supremum, taxicab" in err


def test_persist_metric_flag_conflicts_with_matrix_input(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    write_distance_csv(str(mat), build_distance_matrix(SQUARE, "taxicab"))
    code = main(
        ["persist", "--input", str(mat), "--metric", "euclidean", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "distance matrix" in capsys.readouterr().err


def test_persist_missing_input(tmp_path, capsys):
    code = main(["persist", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_persist_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,0,0\n")
    code = main(["persist", "--input", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["persist", "compare"])
def test_points_whose_differences_overflow_are_refused(tmp_path, capsys, command):
    """1e308 and -1e308 are finite but their difference is not: the span is
    refused before any subtraction, with no overflow warning (which this
    suite turns into an error) and no output."""
    pts = tmp_path / "points.csv"
    pts.write_text("x,y\n1e308,0\n-1e308,0\n0,0\n")
    out = tmp_path / "out"
    assert main([command, "--input", str(pts), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: coordinate span x -1e+308..1e+308, y 0..0 is too wide: "
        "the distances would overflow float64\n"
    )
    assert not out.exists()


def test_persist_svg_written_and_stable(tmp_path):
    pts = write_square(tmp_path)
    out = tmp_path / "out"
    args = ["persist", "--input", str(pts), "--out", str(out), "--svg"]
    assert main(args) == 0
    svg = out / "barcode_euclidean.svg"
    first = svg.read_bytes()
    assert first.startswith(b"<?xml")
    assert b"ripsbars-version" in first
    assert main(args) == 0
    assert svg.read_bytes() == first


def test_persist_no_normalize_keeps_raw_scale(tmp_path):
    pts = write_square(tmp_path)
    assert (
        main(["persist", "--input", str(pts), "--out", str(tmp_path), "--no-normalize"])
        == 0
    )
    bc = read_barcode_csv(str(tmp_path / "barcode_euclidean.csv"))
    assert not bc.normalized
    (h1,) = [b for b in bc.bars if b.dim == 1]
    assert h1.birth == 1.0
    assert h1.death == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("command", ["persist", "compare"])
def test_negative_max_dim_is_usage_error(tmp_path, capsys, command):
    pts = write_square(tmp_path)
    out = tmp_path / "out"
    argv = [command, "--input", str(pts), "--max-dim", "-1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--max-dim" in err
    assert not out.exists()


def test_max_dim_at_the_barcode_file_bound_is_usage_error(tmp_path, capsys):
    """A barcode file holds a ``max_dim`` below 2**63, so ``persist`` refuses
    a cap at the bound before writing anything, and ``stats`` reads back
    the file written at the largest cap below it."""
    pts = write_square(tmp_path)
    out = tmp_path / "out"
    persist = ["persist", "--input", str(pts), "--out", str(out), "--max-dim"]
    assert main(persist + [str(2**63)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--max-dim" in err
    assert not out.exists()
    assert main(persist + [str(2**63 - 1)]) == 0
    path = str(out / "barcode_euclidean.csv")
    assert main(["stats", path, "--out", str(out)]) == 0
    assert read_barcode_csv(path).max_dim == 2**63 - 1


def test_cap_far_above_the_points_stops_at_the_first_empty_dimension(tmp_path):
    """No 10-simplex exists on 10 points, so at cap 3000 the filtration
    stores no more than dimensions 0 to 10, and every cap from 9 up to the
    largest a barcode file holds writes the same bars."""
    assert main(["cloud", "--out", str(tmp_path), "--points", "10", "--seed", "7"]) == 0
    pts = str(tmp_path / "points.csv")
    f = build_filtration(
        build_distance_matrix(read_points_csv(pts, fileio.read_lines(pts)), "euclidean"), 3000
    )
    assert len(f.vertices) == len(f.births) == len(f.facets) <= f.n_points + 1
    columns = {}
    for cap in (9, 3000, 100000, 2**63 - 1):
        out = tmp_path / f"cap{cap}"
        assert main(["persist", "--input", pts, "--max-dim", str(cap), "--out", str(out)]) == 0
        bc = read_barcode_csv(str(out / "barcode_euclidean.csv"))
        assert bc.max_dim == cap
        columns[cap] = (bc.dim, bc.birth, bc.death, bc.open)
    assert (columns[9][0] <= 9).all()
    for cap in (3000, 100000, 2**63 - 1):
        for a, b in zip(columns[9], columns[cap]):
            np.testing.assert_array_equal(a, b)


def test_each_input_is_read_once(tmp_path, monkeypatch):
    dice_out = tmp_path / "dice"
    assert main(["dice", "--out", str(dice_out), "--tie-convention", "strict"]) == 0
    pts = str(write_square(tmp_path))
    sim, euc = str(dice_out / "dist_similarity.csv"), str(dice_out / "dist_euclidean.csv")
    reads = []
    read_lines = fileio.read_lines
    monkeypatch.setattr(fileio, "read_lines", lambda path: reads.append(path) or read_lines(path))
    for argv, inputs in (
        (["persist", "--input", euc], [euc]),
        (["persist", "--input", pts], [pts]),
        (["compare", "--matrices", sim, euc], [sim, euc]),
    ):
        reads.clear()
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert reads == inputs, argv


# ------------------------------------------------------------------ compare

def test_compare_default_metrics(tmp_path, capsys):
    pts = write_square(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--input", str(pts), "--out", str(out)]) == 0
    for name in ("euclidean", "taxicab", "supremum"):
        assert (out / f"barcode_{name}.csv").exists()
    assert (out / "stats.csv").exists()
    assert (out / "stats.txt").exists()
    table = capsys.readouterr().out
    assert "dim" in table and "supremum" in table
    stats_lines = (out / "stats.csv").read_text().splitlines()
    data = [l for l in stats_lines if l and not l.startswith("#")]
    assert data[0] == "metric,dim,count,avg,min,max"
    assert {row.split(",")[0] for row in data[1:]} == {
        "euclidean",
        "taxicab",
        "supremum",
    }


def test_compare_needs_two_metrics(tmp_path, capsys):
    pts = write_square(tmp_path)
    code = main(
        ["compare", "--input", str(pts), "--metrics", "euclidean", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "at least 2" in capsys.readouterr().err


def test_compare_unknown_metric_name(tmp_path, capsys):
    pts = write_square(tmp_path)
    code = main(
        [
            "compare",
            "--input",
            str(pts),
            "--metrics",
            "euclidean,manhattan",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "manhattan" in capsys.readouterr().err


def test_empty_metric_list_is_usage_error(tmp_path, capsys):
    pts = write_square(tmp_path)
    out = tmp_path / "out"
    assert main(["compare", "--input", str(pts), "--metrics", ",", "--out", str(out)]) == 1
    assert "at least 2 distinct metrics, got []" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_metrics_are_refused_before_any_barcode(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_filtration", lambda *a, **k: pytest.fail("filtered"))
    pts = write_square(tmp_path)
    out = tmp_path / "out"
    argv = ["compare", "--input", str(pts), "--metrics", "euclidean,euclidean"]
    assert main(argv + ["--out", str(out)]) == 1
    assert "at least 2 distinct metrics" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_labels_are_refused_before_any_barcode(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_filtration", lambda *a, **k: pytest.fail("filtered"))
    pts = write_square(tmp_path)
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for path in (m1, m2):  # both record "# metric euclidean"
        write_distance_csv(str(path), build_distance_matrix(SQUARE, "euclidean"))
    out = tmp_path / "out"
    for paths in ((pts, pts), (m1, m2)):
        argv = ["compare", "--matrices", *map(str, paths), "--out", str(out)]
        assert main(argv) == 2
        assert "duplicate run names: ['euclidean', 'euclidean']" in capsys.readouterr().err
        assert not out.exists()


def test_compare_matrix_mode(tmp_path):
    m1 = tmp_path / "m1.csv"
    m2 = tmp_path / "m2.csv"
    write_distance_csv(str(m1), build_distance_matrix(SQUARE, "euclidean"))
    write_distance_csv(str(m2), build_distance_matrix(SQUARE, "taxicab"))
    out = tmp_path / "out"
    assert main(["compare", "--matrices", str(m1), str(m2), "--out", str(out)]) == 0
    assert (out / "barcode_euclidean.csv").exists()
    assert (out / "barcode_taxicab.csv").exists()
    data = [
        l
        for l in (out / "stats.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert {row.split(",")[0] for row in data[1:]} == {"euclidean", "taxicab"}


def test_compare_matrices_take_points_csv_as_euclidean(tmp_path):
    pts = write_square(tmp_path)
    euc, taxi = tmp_path / "e.csv", tmp_path / "t.csv"
    write_distance_csv(str(euc), build_distance_matrix(SQUARE, "euclidean"))
    write_distance_csv(str(taxi), build_distance_matrix(SQUARE, "taxicab"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["compare", "--matrices", str(pts), str(taxi), "--out", str(a)]) == 0
    assert main(["compare", "--matrices", str(euc), str(taxi), "--out", str(b)]) == 0
    from_points = read_barcode_csv(str(a / "barcode_euclidean.csv"))
    from_matrix = read_barcode_csv(str(b / "barcode_euclidean.csv"))
    assert from_points.bars == from_matrix.bars
    assert from_points.zero_length == from_matrix.zero_length


def test_compare_rejects_mixed_modes(tmp_path, capsys):
    pts = write_square(tmp_path)
    code = main(
        [
            "compare",
            "--input",
            str(pts),
            "--matrices",
            str(pts),
            str(pts),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_compare_without_inputs(tmp_path, capsys):
    assert main(["compare", "--out", str(tmp_path)]) == 1
    assert "needs --input" in capsys.readouterr().err


def test_compare_single_matrix(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    write_distance_csv(str(mat), build_distance_matrix(SQUARE, "euclidean"))
    assert main(["compare", "--matrices", str(mat), "--out", str(tmp_path)]) == 1
    assert "at least 2 matrices" in capsys.readouterr().err


def test_compare_mismatched_point_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_filtration", lambda *a, **k: pytest.fail("filtered"))
    m1 = tmp_path / "m1.csv"
    m2 = tmp_path / "m2.csv"
    write_distance_csv(str(m1), build_distance_matrix(SQUARE, "euclidean"))
    write_distance_csv(str(m2), build_distance_matrix(SQUARE[:3], "euclidean"))
    # both matrices carry the label "euclidean", so rename via file stems
    body1 = [
        l for l in m1.read_text().splitlines() if not l.startswith("# metric")
    ]
    body2 = [
        l for l in m2.read_text().splitlines() if not l.startswith("# metric")
    ]
    m1.write_text("\n".join(body1) + "\n")
    m2.write_text("\n".join(body2) + "\n")
    out = tmp_path / "out"
    assert main(["compare", "--matrices", str(m1), str(m2), "--out", str(out)]) == 2
    assert "runs describe different point counts: [3, 4]" in capsys.readouterr().err
    assert not out.exists()


#: SHA-256 of every file the two cloud workload chains write for the seed-7
#: cloud, headers included: (extra ``cloud`` args, command argv, digests).
CLOUD_CHAINS = {
    "persist-full": (
        ["--points", "40"],
        ["persist", "--input", "c/points.csv", "--out", "c"],
        {
            "barcode_euclidean.csv":
                "b7593beb8fc7b3d10a03b60a9705e4982aa7193c837e6c788d5c7d82d8761c7b",
            "points.csv": "4fe713f442fcddfdf6f6eda3f50dcbf0743d67590d941d6377df32daae1a2a23",
        },
    ),
    "compare-wide": (
        ["--points", "300"],
        ["compare", "--input", "c/points.csv", "--out", "c", "--stop-on-connected",
         "--max-dim", "1"],
        {
            "barcode_euclidean.csv":
                "aceeb01101e3447c7284bb858adead47a3ddd04b64cce5bacec528a0ef6cb322",
            "barcode_supremum.csv":
                "184d93adbf513943b4f6f8d93b55926db70e984cc4bce3e5a73bed527cf6bfbd",
            "barcode_taxicab.csv":
                "4a4577d29b4d134f3b926be1ca42d930bd0679b92332c43a8586a522bb22fd2f",
            "points.csv": "079978956971206fce81585eb5456767c90810f101e2ca93e44a11195a5245c5",
            "stats.csv": "90e5176753e117c22aee853087169799617ab37ce4a96ae7c57b7ad9ebdf6aea",
            "stats.txt": "134b445100d498755b6eb83a58dd0831da17345fdd700505ec2c3f1d5e6e4bb5",
        },
    ),
}


@pytest.mark.parametrize("chain", sorted(CLOUD_CHAINS))
def test_cloud_chain_outputs_are_byte_stable(tmp_path, monkeypatch, chain):
    cloud_args, argv, expected = CLOUD_CHAINS[chain]
    monkeypatch.chdir(tmp_path)  # headers record --input and --out as given
    assert main(["cloud", "--out", "c", "--seed", "7", *cloud_args]) == 0
    assert main(argv) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "c").iterdir()
    }
    assert digests == expected


# ------------------------------------------------------------ malformed files

BARCODE_META = (
    '# barcode-meta {"max_dim": 2, "metric": "euclidean", "n_points": 4, '
    '"normalized": true, "span_end": 1.0}'
)


def barcode_file(row, meta=BARCODE_META):
    return f"{meta}\ndim,birth,death,open\n{row}\n"


def bad_bar(row):
    """A normalized barcode whose third line is ``row``, and the refusal."""
    return ("stats", barcode_file(row), 3,
            f"need dim >= 0 and 0 <= birth <= death <= 1, got {row!r}")


@pytest.mark.parametrize(
    "command, text, line, message",
    [
        bad_bar("-1,0,0.5,0"),
        bad_bar("1,0.5,0.4,0"),
        bad_bar("1,0.5,1.5,0"),
        bad_bar("1,-0.5,0.5,0"),
        ("stats", barcode_file("0,0,1,1", BARCODE_META.replace("true", '"false"')), 1,
         "barcode-meta 'normalized' must be a JSON boolean, got 'false'"),
        ("stats", barcode_file("0,0,1,1", BARCODE_META.replace("2,", '"x",')), 1,
         "barcode-meta 'max_dim' must be a JSON integer, got 'x'"),
        ("persist", "# metric euclidean\n# labels a,b\n0,1,2\n1,0,1\n2,1,0\n", 2,
         "2 labels for 3 points"),
        ("stats", barcode_file("0,0.2,0.5,1"), 3, "open bar must die at 1: '0,0.2,0.5,1'"),
        ("stats", barcode_file(
            "0,0,2,1", BARCODE_META.replace("true", "false").replace("1.0", "1.5")), 3,
         "open bar must die at 1.5: '0,0,2,1'"),
        ("stats", barcode_file("3,0.1,0.2,0"), 3, "dim above max_dim 2: '3,0.1,0.2,0'"),
        ("stats", barcode_file(f"{10**23},0,0.5,0"), 3,
         f"dim above max_dim 2: '{10**23},0,0.5,0'"),
        ("stats", barcode_file("100000,0,0.5,0", BARCODE_META.replace("2,", "100000,")
                               .replace("4,", "5,")), 3,
         "dim not below n_points 5: '100000,0,0.5,0'"),
        ("stats", barcode_file("4,0.1,0.2,0", BARCODE_META.replace("2,", "9,")), 3,
         "dim not below n_points 4: '4,0.1,0.2,0'"),
        ("stats", "dim,birth,death,open\n100000,0,0.5,0\n", 1, "no '# barcode-meta' line found"),
        ("stats", f"dim,birth,death,open\n{10**23},0,0.5,0\n", 1,
         "no '# barcode-meta' line found"),
        ("stats", barcode_file("0,0,1,1", BARCODE_META.replace(', "span_end": 1.0', "")), 1,
         "barcode-meta 'span_end' must be a JSON number, got None"),
        ("stats", barcode_file("0,0,1,1", BARCODE_META.replace("2,", f"{2**63},")), 1,
         f"barcode-meta 'max_dim' out of range: {2**63}"),
        ("stats", barcode_file("0,0,1,1", BARCODE_META.replace("4,", "-1,")), 1,
         "barcode-meta 'n_points' out of range: -1"),
        # Each distinct line is checked once: the first bad line of the file
        # is named, at its first occurrence, among repeated lines.
        ("stats", barcode_file("\n".join(["1,0.25,0.5,0"] * 1000 + ["1,0.5,0.4,0"])), 1003,
         "need dim >= 0 and 0 <= birth <= death <= 1, got '1,0.5,0.4,0'"),
        ("stats", barcode_file("1,0.25,0.5,0\n3,0.1,0.2,0\n1,0.25,0.5,0\n3,0.1,0.2,0\n"
                               "1,0.5,0.4,0"), 4, "dim above max_dim 2: '3,0.1,0.2,0'"),
        ("stats", barcode_file("\n".join(["0,0.2,0.5,1"] + ["1,0.25,0.5,0"] * 1000)), 3,
         "open bar must die at 1: '0,0.2,0.5,1'"),
        ("persist", "# metric m\n" + "0,1,1,1\n1,0,1,1\n1,1,0,1\n1,1,1e999,0\n", 5,
         "non-finite value: '1e999'"),
        # Blank lines inside the header block are skipped, as among the rows.
        ("stats", "\n" + barcode_file("3,0.1,0.2,0"), 4, "dim above max_dim 2: '3,0.1,0.2,0'"),
        ("persist", "# metric euclidean\n\n# labels a,b\n0,1,2\n1,0,1\n2,1,0\n", 3,
         "2 labels for 3 points"),
    ],
    ids=["negative-dim", "death-before-birth", "death-past-1", "negative-birth",
         "string-boolean", "string-integer", "label-count", "open-bar-short",
         "open-bar-past-span-end", "dim-above-max-dim", "huge-dim", "huge-dim-below-max-dim",
         "dim-not-below-n-points", "no-meta",
         "no-meta-huge-dim", "meta-field-missing", "max-dim-too-large", "negative-n-points",
         "bad-row-after-repeats", "repeated-bad-row", "bad-row-before-repeats",
         "bad-token-after-repeats", "meta-after-blank-line", "labels-after-blank-line"],
)
def test_malformed_file_names_its_line(tmp_path, capsys, command, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    argv = ["stats", str(path)] if command == "stats" else ["persist", "--input", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {path}:{line}: {message}")
    assert not out.exists()


def test_blank_lines_in_header_block_are_skipped(tmp_path):
    """A blank line before ``# barcode-meta`` or between ``# metric`` and
    ``# labels`` leaves the file as it reads without it."""
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text(barcode_file("0,0,1,1\n1,0.25,0.5,0"))
    blank.write_text("\n" + plain.read_text())
    assert read_barcode_csv(str(blank)) == read_barcode_csv(str(plain))
    dist = tmp_path / "dist.csv"
    dist.write_text("# metric euclidean\n\n# labels a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
    m, _ = read_distance_csv(str(dist), fileio.read_lines(str(dist)))
    assert (m.labels, m.metric) == (("a", "b", "c"), "euclidean")


def test_barcode_meta_extra_key_is_ignored(tmp_path, capsys):
    path = tmp_path / "extra.csv"
    path.write_text(barcode_file("0,0,1,1", BARCODE_META.replace("}", ', "note": "x"}')))
    bc = read_barcode_csv(str(path))
    assert (bc.metric, bc.n_points, bc.span_end) == ("euclidean", 4, 1.0)
    assert main(["stats", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "euclidean" in capsys.readouterr().out


def test_barcode_meta_integer_span_end_reads_as_float(tmp_path):
    """``"span_end": 1`` reads as the float 1.0 and writes back as ``1.0``."""
    as_int = tmp_path / "int.csv"
    as_int.write_text(barcode_file("0,0,1,1", BARCODE_META.replace("1.0}", "1}")))
    bc = read_barcode_csv(str(as_int))
    assert type(bc.span_end) is float and bc.span_end == 1.0
    paths = [tmp_path / "from_int.csv", tmp_path / "from_float.csv"]
    as_float = tmp_path / "float.csv"
    as_float.write_text(barcode_file("0,0,1,1"))
    for path, source in zip(paths, (as_int, as_float)):
        write_barcode_csv(str(path), read_barcode_csv(str(source)))
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --------------------------------------------------------------------- dice

def test_dice_standard_space_strict(tmp_path, capsys):
    out = tmp_path / "dice"
    code = main(["dice", "--out", str(out), "--tie-convention", "strict"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "space: 32 dice" in stdout
    assert "non-transitive subset: 10" in stdout

    labels = [
        l
        for l in (out / "dice.txt").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert labels == TEN_DICE

    dot = (out / "beating_graph.dot").read_text()
    assert dot.startswith("// ripsbars-version")
    assert "digraph beating" in dot

    path = str(out / "dist_similarity.csv")
    sim, _ = read_distance_csv(path, fileio.read_lines(path))
    assert sim.metric == "similarity"
    assert sim.labels == tuple(TEN_DICE)
    assert sim.n == 10
    for name in ("euclidean", "foliation_symmetry"):
        assert (out / f"dist_{name}.csv").exists()


#: SHA-256 of every file ``dice --out dice`` writes for DT(6), headers included.
DICE_DIGESTS = {
    "strict": {
        "beating_graph.dot": "d1a93e1ab0de5aa1008095deebfbaf7e3689f3c09a948a39a944ef7696591ed8",
        "dice.txt": "6307ffd6cd9892696b0670f31c1e74ada64cc4dd569051fbb365f475b722ed60",
        "dist_euclidean.csv": "1b9333abd4eeb76a8d39feecb079f97dd57515731ac3949813ac1c44997ecb72",
        "dist_foliation_symmetry.csv":
            "93993dfef22bd61b7d822229ab44ace0b9ec50fcf156c347d90d2cbf854669c0",
        "dist_similarity.csv": "57483102998145e6f0a099af346c7e54698159d071174e7c1ed2e7cc12d5318b",
    },
    "majority": {
        "beating_graph.dot": "bf9c44867cfa2977d0fb6cb09cdc8aad0c5a6e45d4c9e6c98440cd4741163090",
        "dice.txt": "44472d8b1de8d8e6ed09a80d1602bcee80c55c3afa5f7fe342dda7b76457fe6c",
        "dist_euclidean.csv": "00011e304906914f01095793a35652af39b3c74cb49f4469a7b5a53cfd869420",
        "dist_foliation_symmetry.csv":
            "23c7b2a062f17fba09102e404ee36627af61daeab1394db3096cbbd7545f83d9",
        "dist_similarity.csv": "2e9a1ab565ac4d0688f97ffa599e452871536e375fae8ef14dd3d759270d4634",
    },
}


@pytest.mark.parametrize("convention", ["strict", "majority"])
def test_dice_outputs_are_byte_stable(tmp_path, monkeypatch, convention):
    monkeypatch.chdir(tmp_path)  # headers record --out as given
    assert main(["dice", "--out", "dice", "--tie-convention", convention]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "dice").iterdir()
    }
    assert digests == DICE_DIGESTS[convention]


def test_dice_matrix_feeds_persist_with_high_dim_cap(tmp_path):
    out = tmp_path / "dice"
    assert main(["dice", "--out", str(out), "--tie-convention", "strict"]) == 0
    bco = tmp_path / "bars"
    code = main(
        ["persist", "--input", str(out / "dist_euclidean.csv"), "--out", str(bco)]
    )
    assert code == 0
    bc = read_barcode_csv(str(bco / "barcode_euclidean.csv"))
    assert bc.max_dim == 9  # sniffed from the dice run that wrote the matrix
    assert bc.n_points == 10


def test_dice_empty_space_warns_but_succeeds(tmp_path, capsys):
    out = tmp_path / "d"
    code = main(
        [
            "dice",
            "--out",
            str(out),
            "--sides",
            "2",
            "--max-face",
            "3",
            "--face-sum",
            "4",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "warning: no non-transitive dice" in captured.err
    labels = [
        l
        for l in (out / "dice.txt").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert labels == []
    assert "# empty: no dice" in (out / "dist_similarity.csv").read_text()


def test_dice_outside_symmetry_domain_writes_nothing(tmp_path, capsys):
    """4-sided dice have non-transitive subsets but no foliation-symmetry distance."""
    out = tmp_path / "d"
    out.mkdir()
    argv = ["dice", "--out", str(out), "--sides", "4", "--max-face", "4", "--face-sum", "10"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--sides" in err and "--max-face" in err
    assert list(out.iterdir()) == []


def test_dice_rejects_bad_shape(tmp_path, capsys):
    assert main(["dice", "--out", str(tmp_path), "--sides", "0"]) == 1
    assert "--sides" in capsys.readouterr().err


def test_dice_max_face_past_int64_is_the_largest_face_that_fits(tmp_path, capsys):
    """No face exceeds ``face_sum - sides + 1``, so ``--max-face 10**19``
    runs as that bound does: the same usage error as ``--max-face 16`` at
    6/21, and the same dice as ``--max-face 3`` at 2/4."""
    def run(sides, max_face, face_sum):
        out = tmp_path / f"{sides}-{max_face}"
        argv = ["dice", "--out", str(out), "--sides", str(sides),
                "--max-face", str(max_face), "--face-sum", str(face_sum)]
        code = main(argv)
        dice_txt = out / "dice.txt"
        text = dice_txt.read_text() if dice_txt.exists() else None
        lines = None if text is None else [l for l in text.splitlines() if not l.startswith("#")]
        return code, capsys.readouterr().err, lines

    assert run(6, 10**19, 21) == run(6, 16, 21)
    assert run(6, 16, 21)[0] == 1
    assert run(2, 10**19, 4) == run(2, 3, 4)
    assert run(2, 3, 4)[0] == 0


def test_face_sum_at_2_63_is_usage_error(tmp_path, capsys):
    """Dice are int64 rows, so ``--face-sum`` 2**63 is refused before
    anything is written, and 2**63 - 1 runs."""
    out = tmp_path / "d"
    argv = ["dice", "--out", str(out), "--sides", "1", "--max-face", str(10**19), "--face-sum"]
    assert main(argv + [str(2**63)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--face-sum" in err
    assert not out.exists()
    assert main(argv + [str(2**63 - 1)]) == 0
    assert capsys.readouterr().out.startswith("space: 1 dice")


def test_dice_refuses_a_space_too_large_for_its_graph(tmp_path, capsys):
    """32,540 dice: the win counts alone would need 7.9 GiB."""
    out = tmp_path / "d"
    argv = ["dice", "--out", str(out), "--sides", "12", "--max-face", "12", "--face-sum", "78"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error: more than 1024 dice")
    assert not out.exists()


def test_dice_refuses_a_space_of_too_many_faces(tmp_path, capsys):
    """792 dice of 5,000 sides pass the dice bound but not the face budget,
    and are refused while enumerating, before any graph or file."""
    out = tmp_path / "d"
    argv = ["dice", "--out", str(out), "--sides", "5000", "--max-face", "23",
            "--face-sum", "5021"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: more than 6 dice with 5000 faces")
    assert "at most 1024 dice and 32768 faces in all" in err
    assert not out.exists()


# -------------------------------------------------------------------- stats

def test_stats_from_barcode_files(tmp_path, capsys):
    pts = write_square(tmp_path)
    out = tmp_path / "out"
    main(["persist", "--input", str(pts), "--out", str(out)])
    main(["persist", "--input", str(pts), "--metric", "taxicab", "--out", str(out)])
    capsys.readouterr()
    code = main(
        [
            "stats",
            str(out / "barcode_euclidean.csv"),
            str(out / "barcode_taxicab.csv"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "euclidean" in table and "taxicab" in table
    data = [
        l
        for l in (out / "stats.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert data[0] == "metric,dim,count,avg,min,max"


def test_stats_do_not_depend_on_the_row_order_of_a_barcode_file(tmp_path, monkeypatch):
    """A barcode file with its bar lines shuffled reads back as the same
    barcode, so ``stats`` writes the same bytes, the averages included."""
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert main(["cloud", "--out", ".", "--points", "30", "--seed", "5"]) == 0
    assert main(["persist", "--input", "points.csv", "--out", "."]) == 0
    lines = (tmp_path / "a" / "barcode_euclidean.csv").read_text().splitlines()
    start = lines.index("dim,birth,death,open") + 1
    bars = lines[start:]
    np.random.default_rng(0).shuffle(bars)
    assert bars != lines[start:]
    (tmp_path / "b" / "barcode_euclidean.csv").write_text("\n".join(lines[:start] + bars) + "\n")
    for d in ("a", "b"):
        monkeypatch.chdir(tmp_path / d)
        assert main(["stats", "barcode_euclidean.csv", "--out", "s"]) == 0
    assert (tmp_path / "a/s/stats.csv").read_bytes() == (tmp_path / "b/s/stats.csv").read_bytes()


def test_stats_missing_file(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


# -------------------------------------------------------------- error paths

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unexpected_exception_maps_to_internal_error(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._HANDLERS, "cloud", boom)
    assert main(["cloud", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "wires crossed" in err
