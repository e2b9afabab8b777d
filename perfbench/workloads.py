"""The benchmark's workloads: command chains a user would type, and their inputs.

Each workload is one or more parts.  A part is a chain of ``ripsbars``
argument vectors that write into one output directory.  Cloud parts take a
cloud seed; dice parts have no random input at all.

Cloud workloads run a pool of clouds derived from the benchmark seed, one
cloud per iteration.  The cost of one cloud depends on where its points fall
(the reduction work of a 40-point full complex spreads by about 20% between
clouds, and one cloud in a few dozen takes twice the median), so a single
cloud per run would make the run-to-run spread a property of the seed rather
than of the program.  ``cloud_full`` has the largest pool because its clouds
vary most (their costs spread by 19% of their mean): with 8 or 24 clouds the
pool's median cost still moved by about 10% from seed to seed.  Pool entry 0
is the seed itself, so ``--seed 7`` always includes the paper's cloud.

Sizes are smaller than the ladder in ROADMAP.md, all for run-to-run
stability within the time budget of a run:

* ``cloud_full`` uses 40 points, not 100: one 100-point cloud takes 7-17 s
  depending on the seed, too long to average over clouds;
* ``cloud_wide`` uses 300 points, not 600, and caps simplices at dimension 1,
  which keeps its cost in the per-pair metrics and the threshold sort and
  takes the seed-dependent clique expansion out of it;
* ``dice_deep`` caps simplices at dimension 4, not 5 (50k simplices, about
  1.3 s, instead of 150k and 4 s), so that a run repeats it about 15 times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

DEFAULT_SEED = 7
CLOUD_METRICS = ("euclidean", "taxicab", "supremum")
DICE_MATRICES = ("similarity", "euclidean", "foliation_symmetry")


@dataclass(frozen=True)
class Part:
    """One command chain writing into ``<out>/<name>``, and what it must produce."""

    name: str
    chain: Callable[["Part", str, int], List[List[str]]]  # (part, out dir, cloud seed)
    domain: str  # "cloud" or "dice"
    points: int  # cloud size; 0 for dice parts
    max_dim: int  # simplex cap the chain runs with
    stop_on_connected: bool
    barcode_labels: Tuple[str, ...]  # metric label of every barcode written
    svg: bool
    stats_files: Tuple[str, ...]

    def commands(self, out: str, cloud_seed: int) -> List[List[str]]:
        d = f"{out}/{self.name}"
        return self.chain(self, d, cloud_seed)


@dataclass(frozen=True)
class Workload:
    name: str
    parts: Tuple[Part, ...]
    pool: int  # clouds per seed; 1 when the workload has no cloud part

    def cloud_seed(self, seed: int, index: int) -> int:
        """Cloud seed of pool entry ``index`` (entry 0 is ``seed`` itself)."""
        if index == 0:
            return seed
        return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def _paper_cloud(part: Part, d: str, seed: int) -> List[List[str]]:
    return [
        ["cloud", "--out", d, "--points", str(part.points), "--seed", str(seed)],
        ["compare", "--input", f"{d}/points.csv", "--out", d, "--stop-on-connected", "--svg"],
    ]


def _paper_dice(part: Part, d: str, seed: int) -> List[List[str]]:
    chain = [["dice", "--out", d, "--tie-convention", "strict"]]
    for name in DICE_MATRICES:
        chain.append(["persist", "--input", f"{d}/dist_{name}.csv", "--out", d])
    chain.append(
        ["stats"]
        + [f"{d}/barcode_{name.replace('_', '-')}.csv" for name in DICE_MATRICES]
        + ["--out", d]
    )
    return chain


def _full_cloud(part: Part, d: str, seed: int) -> List[List[str]]:
    return [
        ["cloud", "--out", d, "--points", str(part.points), "--seed", str(seed)],
        ["persist", "--input", f"{d}/points.csv", "--out", d],
    ]


def _wide_cloud(part: Part, d: str, seed: int) -> List[List[str]]:
    return [
        ["cloud", "--out", d, "--points", str(part.points), "--seed", str(seed)],
        ["compare", "--input", f"{d}/points.csv", "--out", d, "--stop-on-connected", "--svg",
         "--max-dim", str(part.max_dim)],
    ]


def _deep_dice(part: Part, d: str, seed: int) -> List[List[str]]:
    return [
        ["dice", "--out", d],
        ["compare", "--matrices"]
        + [f"{d}/dist_{name}.csv" for name in DICE_MATRICES]
        + ["--out", d, "--stop-on-connected", "--max-dim", str(part.max_dim)],
    ]


_DICE_LABELS = tuple(name.replace("_", "-") for name in DICE_MATRICES)

STATS = ("stats.csv", "stats.txt")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper",
            (
                Part("paper_cloud", _paper_cloud, "cloud", points=50, max_dim=2,
                     stop_on_connected=True, barcode_labels=CLOUD_METRICS, svg=True,
                     stats_files=STATS),
                Part("paper_dice", _paper_dice, "dice", points=0, max_dim=9,
                     stop_on_connected=False, barcode_labels=_DICE_LABELS, svg=False,
                     stats_files=("stats.csv",)),
            ),
            pool=8,
        ),
        Workload(
            "cloud_full",
            (Part("full_cloud", _full_cloud, "cloud", points=40, max_dim=2,
                  stop_on_connected=False, barcode_labels=("euclidean",), svg=False,
                  stats_files=()),),
            pool=48,
        ),
        Workload(
            "cloud_wide",
            (Part("wide_cloud", _wide_cloud, "cloud", points=300, max_dim=1,
                  stop_on_connected=True, barcode_labels=CLOUD_METRICS, svg=True,
                  stats_files=STATS),),
            pool=4,
        ),
        Workload(
            "dice_deep",
            (Part("deep_dice", _deep_dice, "dice", points=0, max_dim=4,
                  stop_on_connected=True, barcode_labels=_DICE_LABELS, svg=False,
                  stats_files=STATS),),
            pool=1,
        ),
    )
}
