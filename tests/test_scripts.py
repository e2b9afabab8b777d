"""The experiment scripts under ``scripts/`` run end to end and write the
files their docstrings name."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def test_run_cloud_comparison(tmp_path):
    out = tmp_path / "cloud"
    assert run_script("run_cloud_comparison", ["--out", str(out)]) == 0
    barcodes = {
        f"barcode_{metric}.{ext}"
        for metric in ("euclidean", "taxicab", "supremum")
        for ext in ("csv", "svg")
    }
    assert {p.name for p in out.iterdir()} == {
        "points.csv", "stats.csv", "stats.txt", *barcodes
    }


def test_run_dice_comparison(tmp_path, capsys):
    out = tmp_path / "dice"
    assert run_script("run_dice_comparison", ["--out", str(out)]) == 0
    names = ("similarity", "euclidean", "foliation_symmetry")
    assert {p.name for p in out.iterdir()} == {
        "dice.txt",
        "beating_graph.dot",
        "stats.csv",
        *(f"dist_{name}.csv" for name in names),
        *(f"barcode_{name.replace('_', '-')}.csv" for name in names),
    }
    table = capsys.readouterr().out
    assert all(name.replace("_", "-") in table for name in names)
