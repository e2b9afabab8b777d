"""Vietoris–Rips persistent homology barcodes under interchangeable metrics.

The pipeline: a distance matrix (any pseudometric) → flag-complex filtration
over its sorted edges → Z/2 persistence pairs (union-find, then coboundary
reduction with clearing) → barcode → per-dimension statistics
of bar lifespans.  Two data domains ship built in: planar point clouds under
Euclidean/taxicab/supremum metrics, and non-transitive dice under
graph-derived distances.
"""

from .cloud import Region, four_hole_disk, sample_region
from .dice import (
    BeatingGraph,
    DiceSpace,
    build_beating_graph,
    enumerate_dice,
    non_transitive_subset,
)
from .fileio import VERSION as __version__
from .filtration import Filtration, Simplex, build_filtration
from .metrics import (
    DistanceMatrix,
    build_distance_matrix,
    euclidean,
    supremum,
    taxicab,
)
from .persistence import (
    Bar,
    Barcode,
    barcode,
    extract_pairs,
    persistence_pairs,
    reduce_matrix,
    total_boundary_matrix,
)
from .stats import BarStats, bar_stats, compare

__all__ = [
    "Bar",
    "Barcode",
    "BarStats",
    "BeatingGraph",
    "DiceSpace",
    "DistanceMatrix",
    "Filtration",
    "Region",
    "Simplex",
    "bar_stats",
    "barcode",
    "build_beating_graph",
    "build_distance_matrix",
    "build_filtration",
    "compare",
    "enumerate_dice",
    "euclidean",
    "extract_pairs",
    "four_hole_disk",
    "non_transitive_subset",
    "persistence_pairs",
    "reduce_matrix",
    "sample_region",
    "supremum",
    "taxicab",
    "total_boundary_matrix",
    "__version__",
]
