"""The experiment scripts under ``scripts/`` run end to end and write the
files their docstrings name."""

import hashlib
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


#: SHA-256 of every file ``run_cloud_comparison.py --out cloud`` writes
#: (seed 7, 50 points), headers included.
CLOUD_DIGESTS = {
    "barcode_euclidean.csv": "da060370f15f859488083cfc7fd5f598851e27ca08deeef9c144a2ce98fa17d2",
    "barcode_euclidean.svg": "ba9a8ecd58be53c38b9d860d2d05f15d60f5fd0c0fc7a6dd46c2a3c680f29e93",
    "barcode_supremum.csv": "3f64aea1062c76009b5acc98f60a4e86f2231849a5810715731da27cf4946a61",
    "barcode_supremum.svg": "99836254679c7e1c455bd19637ad6ea10da83ed802ed4ff313d8095111036ec1",
    "barcode_taxicab.csv": "9f1c810a75416d3de775bf1e1877a60b7024156223d070e0dff0df1ef9ae396d",
    "barcode_taxicab.svg": "5f995a2c9e590718d5fde38b007982931fdc6786ad5a1a57152330915da5bd24",
    "points.csv": "81fad5a71b6ac301ad229b2e0d060332e011b8820da62800daf6bd5d7d04e7c1",
    "stats.csv": "99d67b7e09920d7720377f97b10114e825baec25179b5b7dedb16a6119b07333",
    "stats.txt": "a77c23158569f7b0c151c6e1de8e411e082dee26e821d632c3f0fbdb44f67a9f",
}


def test_run_cloud_comparison(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # headers record --out as given
    assert run_script("run_cloud_comparison", ["--out", "cloud"]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "cloud").iterdir()
    }
    assert digests == CLOUD_DIGESTS


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
